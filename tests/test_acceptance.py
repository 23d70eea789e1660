"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers (visible with pytest -s). Statistical comparisons between
schemes use paired per-trial differences, which the shared per-trial random
streams make meaningful.
"""

import time

import numpy as np
import pytest

from ttsbeam import (
    CorrelationSpec,
    ExperimentSpec,
    InstantaneousChannels,
    PddParams,
    SscaParams,
    apply_sweep,
    bcd_solve,
    brute_force_solve,
    build_quadratic_form,
    build_scsi,
    default_multi_user_scenario,
    default_single_user_scenario,
    exp_correlation,
    instantaneous_rates,
    kron_correlation,
    mrt_rate,
    pdd_solve,
    rate_jacobian,
    rate_upper_bound,
    sample_batch,
    simulate_point,
    ssca_run,
    substream,
    wmmse_solve,
)
from ttsbeam.single_user import QuadraticForm

from conftest import cscg, random_psd_qf, small_scenario


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def _paired_gap(a, b):
    d = a - b
    se = d.std(ddof=1) / np.sqrt(d.size)
    return float(d.mean()), float(se)


def test_criterion_01_average_power_oracle():
    """Analytic average channel power matches Monte-Carlo within 1%."""
    t0 = time.time()
    rng = substream(101, "setup")
    worst = 0.0
    for i in range(20):
        n_h = int(rng.integers(1, 5))
        n_v = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        scen = small_scenario(
            n_shape=(n_h, n_v), m=m,
            r=(float(rng.uniform(0, 0.9)), float(rng.uniform(0, 0.9)),
               float(rng.uniform(0, 0.9))),
            betas_db=tuple(float(x) for x in rng.uniform(-5, 10, 3)),
            distance=float(rng.uniform(40, 60)),
        )
        scsi = build_scsi(scen, substream(101, "scsi", i))
        qf = build_quadratic_form(scsi)
        g, h_r, h_d = sample_batch(scsi, 100_000, substream(101, "mc", i))
        for j in range(5):
            v = np.exp(1j * substream(101, "v", i, j).uniform(0, 2 * np.pi, scen.num_elements))
            h_eff = np.einsum("sn,snm->sm", h_r[:, 0, :] * v, g.conj()) + h_d[:, 0, :]
            mc = float(np.mean(np.sum(np.abs(h_eff) ** 2, axis=1)))
            analytic = qf.expected_gain(v)
            rel = abs(mc - analytic) / analytic
            worst = max(worst, rel)
            assert rel <= 0.01
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("1 average-power oracle", f"worst rel err {worst:.2%}, {elapsed:.0f}s")


def test_criterion_02_pdd_near_optimality():
    """Penalty solver vs exhaustive search at N=8, L=2 over 100 instances."""
    t0 = time.time()
    hits = 0
    for seed in range(100):
        qf = random_psd_qf(8, seed)
        res = pdd_solve(qf, PddParams(levels=2))
        ref = brute_force_solve(qf, levels=2)
        assert res.violation < 1e-6
        hits += res.objective >= 0.95 * ref.objective
    elapsed = time.time() - t0
    assert hits >= 90
    assert elapsed < 60
    _report("2 penalty near-optimality", f"{hits}/100 within 5%, {elapsed:.0f}s")


def test_criterion_03_all_ones_exactness_under_rayleigh():
    """Nonnegative Hadamard-structured forms: constant phases are optimal."""
    rng = substream(103, "draws")
    for i in range(20):
        r1, r2, r3, r4 = rng.uniform(0.05, 0.95, 4)
        phi_r = kron_correlation(exp_correlation(2, float(r1)), exp_correlation(4, float(r2)))
        phi_ru = kron_correlation(exp_correlation(2, float(r3)), exp_correlation(4, float(r4)))
        qf = QuadraticForm(phi=phi_ru * phi_r, b=np.zeros(8), const_term=0.0)
        target = float(np.real(qf.phi.sum()))  # objective at the all-ones vector
        for res_obj in (pdd_solve(qf, PddParams(levels=2)).objective,
                        bcd_solve(qf, levels=2).objective):
            assert res_obj == pytest.approx(target, rel=1e-6)
    _report("3 constant-phase exactness", "20/20 draws, PDD and BCD")


def test_criterion_04_jacobian_finite_differences():
    """Rate gradient vs central differences on 100 random instances."""
    eps = 1e-6
    worst = 0.0
    for i in range(100):
        rng = substream(104, "inst", i)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        ch = InstantaneousChannels(g=cscg(rng, (n, m)), h_r=cscg(rng, (k, n)),
                                   h_d=cscg(rng, (k, m)))
        w = cscg(rng, (k, m))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        noise = rng.uniform(0.1, 0.5, k)
        _, c = instantaneous_rates(v, w, ch, noise)
        jac = rate_jacobian(ch, w, c, noise)
        idx = int(rng.integers(0, n))
        for direction, ref in ((1.0, 2 * jac[idx].real), (1j, 2 * jac[idx].imag)):
            dv = np.zeros(n, dtype=complex)
            dv[idx] = direction * eps
            rp, _ = instantaneous_rates(v + dv, w, ch, noise)
            rm, _ = instantaneous_rates(v - dv, w, ch, noise)
            fd = (rp - rm) / (2 * eps)
            rel = float(np.max(np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-6)))
            worst = max(worst, rel)
            assert rel < 1e-5
    _report("4 gradient finite differences", f"worst rel err {worst:.1e}")


def test_criterion_05_wmmse_monotone_and_mrt():
    """Precoder iterations never lose weighted sum-rate; K=1 matches MRT."""
    for i in range(100):
        rng = substream(105, "inst", i)
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        h = cscg(rng, (k, m))
        alpha = rng.uniform(0.5, 2.0, k)
        noise = rng.uniform(0.05, 0.3, k)
        p = float(rng.uniform(0.2, 3.0))
        state = wmmse_solve(h, alpha, p, noise)
        for a, b in zip(state.trace, state.trace[1:]):
            assert b >= a - 1e-10 * max(1.0, abs(a))
        if k == 1:
            assert state.objective == pytest.approx(
                alpha[0] * mrt_rate(h[0], p, float(noise[0])), rel=1e-6)
    # explicit K=1 sweep
    for i in range(20):
        rng = substream(105, "single", i)
        h = cscg(rng, (1, 4))
        state = wmmse_solve(h, np.ones(1), 1.0, np.array([0.1]))
        assert state.objective == pytest.approx(mrt_rate(h[0], 1.0, 0.1), rel=1e-6)
    _report("5 precoder monotonicity + MRT", "100 instances, 20 single-user checks")


SEED_TREND = 606


@pytest.mark.slow
def test_criterion_06_distance_trend_ordering():
    """Desk-scale rate ordering at d = 50 m with paired-gap significance."""
    t0 = time.time()
    scen = default_single_user_scenario(distance=50.0)
    spec_tts = ExperimentSpec(scenario=scen, schemes=("tts-pdd",), q_bits=(1, 2, 3),
                              slots=200, trials=200, weights=[1.0], seed=SEED_TREND)
    spec_rest = ExperimentSpec(scenario=scen,
                               schemes=("icsi-per-slot", "random-phase", "no-irs"),
                               q_bits=(0,), slots=200, trials=200, weights=[1.0],
                               seed=SEED_TREND)
    stats = {}
    for sp in (spec_tts, spec_rest):
        out, failures = simulate_point(scen, sp)
        assert failures == 0
        stats.update({cell: ps.weighted for cell, ps in out.items()})
    order = [("icsi-per-slot", 0), ("tts-pdd", 3), ("tts-pdd", 2), ("tts-pdd", 1),
             ("random-phase", 0), ("no-irs", 0)]
    gaps = []
    for hi, lo in zip(order, order[1:]):
        gap, se = _paired_gap(stats[hi], stats[lo])
        gaps.append((hi, lo, gap, se))
        assert gap > 0, f"{hi} does not beat {lo}"
        assert gap > 2 * se, f"{hi} vs {lo}: gap {gap:.4f} <= 2 x {se:.4f}"
    elapsed = time.time() - t0
    assert elapsed < 600
    detail = ", ".join(f"{a[0]}>{b[0]}@q{b[1]}: {g:.3f}±{s:.3f}" for a, b, g, s in gaps)
    _report("6 distance-trend ordering", f"{detail}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_rician_factor_trend():
    """Average rate grows with the cascaded Rician factor; the adaptive-design
    advantage shrinks as the channel hardens (95% confidence, 200 trials)."""
    t0 = time.time()
    base = default_single_user_scenario(distance=50.0)
    base.correlation = CorrelationSpec(r_d=0.0, r_r=0.0, r_rk=(0.0,))
    base.rician.beta_au = 0.0          # Rayleigh direct link
    betas = (-10.0, 0.0, 10.0, 20.0)
    tts, icsi = {}, {}
    for beta_db in betas:
        scen = apply_sweep(base, "rician_beta", beta_db)
        sp = ExperimentSpec(scenario=scen, schemes=("tts-pdd",), q_bits=(0,),
                            slots=50, trials=200, weights=[1.0], seed=707)
        out, _ = simulate_point(scen, sp)
        tts[beta_db] = out[("tts-pdd", 0)].weighted
        if beta_db in (0.0, 20.0):
            sp2 = ExperimentSpec(scenario=scen, schemes=("icsi-per-slot",), q_bits=(0,),
                                 slots=50, trials=200, weights=[1.0], seed=707)
            out2, _ = simulate_point(scen, sp2)
            icsi[beta_db] = out2[("icsi-per-slot", 0)].weighted
    increments = []
    for lo, hi in zip(betas, betas[1:]):
        gap, se = _paired_gap(tts[hi], tts[lo])
        increments.append(gap)
        assert gap > 1.96 * se, f"rate at {hi} dB not above {lo} dB with confidence"
    gap_shrink, se_shrink = _paired_gap(icsi[0.0] - tts[0.0], icsi[20.0] - tts[20.0])
    assert gap_shrink > 1.96 * se_shrink
    elapsed = time.time() - t0
    _report("7 Rician-factor trend",
            f"increments {['%.3f' % g for g in increments]}, "
            f"gap shrink {gap_shrink:.3f}±{se_shrink:.3f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_ssca_stabilization_and_amplitude_modes():
    """Weighted-rate trace settles within 500 iterations; the relaxed-amplitude
    variant settles at least as fast as unit amplitude on most seeds."""
    t0 = time.time()
    scen = default_multi_user_scenario()
    params = SscaParams(max_iters=500, patience=501)

    scsi = build_scsi(scen, substream(20240, "scsi"))
    res = ssca_run(scsi, scen.transmit_power, scen.noise_powers, np.ones(4),
                   params, levels=2, rng=substream(20240, "ssca"),
                   stop_when_stable=True)
    assert res.stabilized_at is not None and res.stabilized_at <= 500

    wins = 0
    for seed in range(20):
        scsi = build_scsi(scen, substream(8800 + seed, "scsi"))
        v0 = np.exp(1j * substream(8800 + seed, "init").uniform(0, 2 * np.pi, 40))
        settled = {}
        for mode in ("relaxed", "unit"):
            r = ssca_run(scsi, scen.transmit_power, scen.noise_powers, np.ones(4),
                         params, levels=2, rng=substream(8800 + seed, "ssca"),
                         amplitude=mode, v0=v0, stop_when_stable=True)
            settled[mode] = r.stabilized_at if r.stabilized_at is not None else np.inf
        wins += settled["relaxed"] <= settled["unit"]
    assert wins >= 14   # 70% of 20
    elapsed = time.time() - t0
    _report("8 stochastic-ascent stabilization",
            f"default settled at {res.stabilized_at}, relaxed<=unit on {wins}/20, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_09_cross_algorithm_consistency():
    """Deterministic single-user channels: sample-driven ascent matches the
    closed-form pipeline within 2%."""
    t0 = time.time()
    params = SscaParams(rho_exponent=0.55, gamma_exponent=0.6, tau=1e-3,
                        max_iters=2000, tol=1e-7, patience=20)
    ratios = []
    for seed in range(10):
        scen = small_scenario(n_shape=(4, 4), m=4)
        scsi = build_scsi(scen, substream(7100 + seed, "scsi"))
        scsi.s_ai = 0.0
        scsi.s_au[:] = 0.0
        scsi.s_iu[:] = 0.0
        p, noise = scen.transmit_power, scen.noise_powers
        qf = build_quadratic_form(scsi)
        r_pdd = rate_upper_bound(qf, pdd_solve(qf, PddParams(levels=0)).config.v,
                                 p, float(noise[0]))
        res = ssca_run(scsi, p, noise, np.ones(1), params, levels=0,
                       rng=substream(7100 + seed, "ssca"))
        r_ssca = rate_upper_bound(qf, res.config.v, p, float(noise[0]))
        ratios.append(r_ssca / r_pdd)
        assert r_ssca >= 0.98 * r_pdd
    elapsed = time.time() - t0
    _report("9 cross-algorithm consistency",
            f"min ratio {min(ratios):.4f} over 10 seeds, {elapsed:.0f}s")


def test_criterion_10_reproducibility():
    """Reruns with the same seed give bit-identical numbers."""
    # solver path
    objs = []
    for _ in range(2):
        batch = []
        for seed in range(10):
            qf = random_psd_qf(8, seed)
            batch.append(pdd_solve(qf, PddParams(levels=2)).objective)
        objs.append(batch)
    assert objs[0] == objs[1]

    # experiment path
    scen = small_scenario(n_shape=(2, 2), m=2)
    spec = ExperimentSpec(scenario=scen, schemes=("tts-pdd", "random-phase"),
                          q_bits=(1,), slots=3, trials=4, weights=[1.0], seed=55)
    runs = [simulate_point(scen, spec)[0] for _ in range(2)]
    for cell in runs[0]:
        assert np.array_equal(runs[0][cell].weighted, runs[1][cell].weighted)

    # stochastic-ascent path
    mu = small_scenario(users=2, n_shape=(2, 2), m=2)
    scsi = build_scsi(mu, substream(56, "s"))
    traces = []
    for _ in range(2):
        r = ssca_run(scsi, mu.transmit_power, mu.noise_powers, np.ones(2),
                     SscaParams(max_iters=10, patience=3), levels=2,
                     rng=substream(56, "ssca"))
        traces.append(r.trace)
    assert traces[0] == traces[1]
    _report("10 reproducibility", "solver, experiment and ascent paths bit-identical")
