import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttsbeam import (
    PddParams,
    QuadraticForm,
    bcd_solve,
    brute_force_solve,
    build_quadratic_form,
    build_scsi,
    exp_correlation,
    kron_correlation,
    mrt_precoder,
    mrt_rate,
    pdd_solve,
    rate_upper_bound,
    sample_batch,
    substream,
)
from ttsbeam.channel import grid_angles
from ttsbeam.single_user import default_rho0, pdd_solve_batch

from conftest import cscg, random_psd_qf, reference_bcd, reference_pdd_batch, small_scenario


class TestQuadraticForm:
    def test_pure_deterministic_keeps_mean_outer_product_only(self):
        scen = small_scenario(betas_db=(120.0, 120.0, 120.0))
        scsi = build_scsi(scen, substream(1, "s"))
        scsi.s_ai = 0.0
        scsi.s_iu[:] = 0.0
        scsi.s_au[:] = 0.0
        qf = build_quadratic_form(scsi)
        d = np.diag(scsi.zbar_r[0].conj())
        expect = d @ scsi.fbar @ scsi.fbar.conj().T @ d.conj().T
        assert np.allclose(qf.phi, expect)
        assert np.allclose(qf.b, d @ scsi.fbar @ scsi.zbar_d[0])

    def test_rayleigh_cascade_keeps_hadamard_term_only(self):
        scen = small_scenario()
        scsi = build_scsi(scen, substream(2, "s"))
        scsi.zbar_r[:] = 0.0
        scsi.fbar[:] = 0.0
        scsi.zbar_d[:] = 0.0
        qf = build_quadratic_form(scsi)
        lam_sum = float(np.trace(scsi.phi_d))
        expect = lam_sum * scsi.s_ai ** 2 * scsi.s_iu[0] ** 2 * (scsi.phi_rk[0] * scsi.phi_r)
        assert np.allclose(qf.phi, expect)
        assert np.all(qf.b == 0)

    def test_matches_monte_carlo_average_power(self):
        scen = small_scenario(n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(3, "s"))
        qf = build_quadratic_form(scsi)
        rng = substream(3, "v")
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        g, h_r, h_d = sample_batch(scsi, 100_000, substream(3, "mc"))
        h_eff = np.einsum("sn,snm->sm", h_r[:, 0, :] * v, g.conj()) + h_d[:, 0, :]
        mc = np.mean(np.sum(np.abs(h_eff) ** 2, axis=1))
        assert mc == pytest.approx(qf.expected_gain(v), rel=0.01)

    def test_rejects_multiuser_csi(self):
        scen = small_scenario(users=2)
        scsi = build_scsi(scen, substream(4, "s"))
        with pytest.raises(ValueError):
            build_quadratic_form(scsi)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            QuadraticForm(phi=np.array([[1.0, 1.0], [0.0, 1.0]]), b=np.zeros(2), const_term=0.0)

    def test_rejects_non_hermitian_at_long_term_scale(self):
        # long-term forms at d = 40-60 m have entries near 1e-12 to 1e-10, where
        # an absolute 1e-10 tolerance accepted any matrix
        phi = 1e-12 * cscg(np.random.default_rng(0), (40, 40))
        with pytest.raises(ValueError, match="Hermitian"):
            QuadraticForm(phi=phi, b=np.zeros(40), const_term=0.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e6])
    def test_accepts_hermitian_at_any_scale(self, scale):
        x = cscg(np.random.default_rng(1), (40, 40))
        qf = QuadraticForm(phi=scale * (x @ x.conj().T), b=np.zeros(40), const_term=0.0)
        assert qf.size == 40


class TestRateUpperBound:
    def test_zero_form_gives_zero_rate(self):
        qf = QuadraticForm(phi=np.zeros((3, 3)), b=np.zeros(3), const_term=0.0)
        assert rate_upper_bound(qf, np.ones(3, complex), 1.0, 1.0) == 0.0

    def test_rejects_negative_gain_at_long_term_scale(self):
        # a constant term of 3.6e-9 is the shipped scale; a gain of -5 % of it
        # (-1.8e-10) passed an absolute -1e-9 threshold as rate 0
        const = 3.6e-9
        qf = QuadraticForm(phi=np.zeros((2, 2)), b=np.full(2, -0.2625 * const),
                           const_term=const)
        with pytest.raises(ValueError, match="negative"):
            rate_upper_bound(qf, np.ones(2, complex), 1.0, 1e-12)
        # a gain that cancels to rounding is zero, not an error
        qf.b = np.full(2, -0.25 * const)
        assert rate_upper_bound(qf, np.ones(2, complex), 1.0, 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_identity_form(self):
        n = 5
        qf = QuadraticForm(phi=np.eye(n), b=np.zeros(n), const_term=0.0)
        v = np.exp(1j * np.linspace(0, 3, n))
        assert rate_upper_bound(qf, v, 1.0, 1.0) == pytest.approx(np.log2(1 + n))

    def test_matches_direct_evaluation(self, rng):
        qf = random_psd_qf(4, 7)
        qf.const_term = 0.3
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        direct = np.log2(1 + 2.0 * (np.real(v.conj() @ qf.phi @ v)
                                    + 2 * np.real(v.conj() @ qf.b) + 0.3) / 0.7)
        assert rate_upper_bound(qf, v, 2.0, 0.7) == pytest.approx(direct, rel=1e-12)

    def test_jensen_direction_over_samples(self):
        # the bound sits above the sampled average rate
        scen = small_scenario(n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(6, "s"))
        qf = build_quadratic_form(scsi)
        p, sig = scen.transmit_power, float(scen.noise_powers[0])
        rng = substream(6, "v")
        for _ in range(3):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            g, h_r, h_d = sample_batch(scsi, 100_000, substream(6, "mc"))
            h_eff = np.einsum("sn,snm->sm", h_r[:, 0, :] * v, g.conj()) + h_d[:, 0, :]
            gains = np.sum(np.abs(h_eff) ** 2, axis=1)
            avg_rate = np.mean(np.log2(1 + p * gains / sig))
            assert rate_upper_bound(qf, v, p, sig) >= avg_rate - 1e-3


class TestMrt:
    def test_basis_vector(self):
        w = mrt_precoder(np.array([1.0 + 0j, 0.0]), 4.0)
        assert np.allclose(w, [2.0, 0.0])

    def test_power_normalization(self, rng):
        for _ in range(5):
            h = cscg(rng, (6,))
            w = mrt_precoder(h, 2.5)
            assert np.linalg.norm(w) ** 2 == pytest.approx(2.5)

    def test_zero_channel_warns(self):
        with pytest.warns(UserWarning):
            w = mrt_precoder(np.zeros(3, complex), 1.0)
        assert np.all(w == 0)

    def test_beats_random_precoders(self, rng):
        h = cscg(rng, (4,))
        p, sig = 1.7, 0.4
        best = mrt_rate(np.sqrt(p) * 0 + h, p, sig)
        w_opt = mrt_precoder(h, p)
        rate_opt = np.log2(1 + np.abs(h.conj() @ w_opt) ** 2 / sig)
        for _ in range(100):
            w = cscg(rng, (4,))
            w *= np.sqrt(p) / np.linalg.norm(w)
            rate = np.log2(1 + np.abs(h.conj() @ w) ** 2 / sig)
            assert rate_opt >= rate - 1e-12


class TestPddSolve:
    def test_linear_only_objective(self):
        n = 4
        b = np.zeros(n, complex)
        b[0] = 1.0
        qf = QuadraticForm(phi=np.zeros((n, n)), b=b, const_term=0.0)
        for levels in (1, 2, 4):
            res = pdd_solve(qf, PddParams(levels=levels))
            assert res.objective == pytest.approx(2.0, abs=1e-9)
            assert res.config.v[0] == pytest.approx(1.0 + 0j)

    def test_rayleigh_structure_alignes_all_phases(self):
        # nonnegative real matrix with no linear term: constant phases are optimal
        rng = np.random.default_rng(0)
        for trial in range(5):
            r1, r2 = rng.uniform(0.1, 0.95, 2)
            phi = kron_correlation(exp_correlation(2, r1), exp_correlation(3, r2))
            phi = phi * kron_correlation(exp_correlation(2, r2), exp_correlation(3, r1))
            qf = QuadraticForm(phi=phi, b=np.zeros(6), const_term=0.0)
            res = pdd_solve(qf, PddParams(levels=2))
            assert res.objective == pytest.approx(float(phi.sum()), rel=1e-6)

    def test_near_optimal_vs_brute_force(self):
        hits = 0
        for seed in range(30):
            qf = random_psd_qf(8, seed)
            res = pdd_solve(qf, PddParams(levels=2))
            ref = brute_force_solve(qf, levels=2)
            assert res.violation < 1e-6
            hits += res.objective >= 0.95 * ref.objective
        assert hits >= 27

    def test_inner_loop_al_monotone(self):
        qf = random_psd_qf(6, 5)
        res = pdd_solve(qf, PddParams(levels=2), record_trace=True)
        by_outer = {}
        for outer, inner, al, _, _ in res.trace:
            by_outer.setdefault(outer, []).append(al)
        for vals in by_outer.values():
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_scaling_equivariance(self):
        for seed in (1, 2, 3):
            qf = random_psd_qf(6, seed)
            base = pdd_solve(qf, PddParams(levels=4)).config.v
            for scale in (1e-6, 1e6):
                qs = QuadraticForm(phi=scale * qf.phi, b=scale * qf.b, const_term=0.0)
                scaled = pdd_solve(qs, PddParams(levels=4)).config.v
                assert np.array_equal(base, scaled)

    def test_feasible_exit(self):
        qf = random_psd_qf(10, 9)
        res = pdd_solve(qf, PddParams(levels=4))
        assert res.converged
        assert res.violation < 1e-6
        angles = np.mod(np.angle(res.config.v), 2 * np.pi)
        grid = 2 * np.pi * np.arange(4) / 4
        dist = np.abs(angles[:, None] - grid[None, :])
        dist = np.minimum(dist, 2 * np.pi - dist)
        assert dist.min(axis=1).max() < 1e-12


class TestBcd:
    def test_single_element(self):
        b = np.array([np.exp(1.1j)])
        qf = QuadraticForm(phi=np.zeros((1, 1)), b=b, const_term=0.0)
        res = bcd_solve(qf, levels=4)
        # nearest grid phase to angle(b) = 1.1 rad is pi/2
        assert res.config.v[0] == pytest.approx(np.exp(1j * np.pi / 2))
        cont = bcd_solve(qf, levels=0)
        assert np.angle(cont.config.v[0]) == pytest.approx(1.1)

    def test_sweeps_monotone(self):
        for seed in range(5):
            qf = random_psd_qf(7, seed + 100)
            res = bcd_solve(qf, levels=2)
            for a, b in zip(res.sweep_objectives, res.sweep_objectives[1:]):
                assert b >= a - 1e-9 * max(1.0, abs(a))

    def test_near_optimal_vs_brute_force(self):
        # coordinate descent on realistic statistics-derived forms
        hits = 0
        for seed in range(30):
            scen = small_scenario(n_shape=(2, 4), m=4)
            scsi = build_scsi(scen, substream(600 + seed, "scsi"))
            qf = build_quadratic_form(scsi)
            res = bcd_solve(qf, levels=2)
            ref = brute_force_solve(qf, levels=2)
            hits += res.objective >= 0.95 * ref.objective
        assert hits >= 27

    def test_rejects_off_grid_start(self):
        qf = random_psd_qf(3, 1)
        with pytest.raises(ValueError):
            bcd_solve(qf, levels=2, v0=np.exp(1j * np.array([0.3, 0.0, 0.0])))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(n=st.integers(1, 10), rank=st.integers(1, 10), levels=st.sampled_from([0, 1, 2, 4, 8]),
           seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-12.0, 6.0),
           negate=st.booleans(), start=st.booleans())
    def test_matches_reference_bit_for_bit(self, n, rank, levels, seed, log_scale, negate, start):
        # negated forms are what the multi-user MSE surrogate hands over
        qf = random_psd_qf(n, seed, rank)
        scale = (-1.0 if negate else 1.0) * 10.0 ** log_scale
        qf = QuadraticForm(phi=scale * qf.phi, b=scale * qf.b, const_term=0.0)
        v0 = None
        if start:
            rng = np.random.default_rng(seed)
            angles = (rng.uniform(0.0, 2.0 * np.pi, n) if levels == 0
                      else grid_angles(levels)[rng.integers(0, levels, n)])
            v0 = np.exp(1j * angles)
        res = bcd_solve(qf, levels, v0=v0)
        v, obj, history = reference_bcd(qf, levels, v0)
        assert np.array_equal(res.config.v, v)
        assert res.objective == obj
        assert res.sweep_objectives == history

    def test_scaling_equivariance(self):
        qf = random_psd_qf(6, 55)
        base = bcd_solve(qf, levels=4).config.v
        for scale in (1e-6, 1e3):
            qs = QuadraticForm(phi=scale * qf.phi, b=scale * qf.b, const_term=0.0)
            assert np.array_equal(base, bcd_solve(qs, levels=4).config.v)


class TestBruteForce:
    def test_flat_landscape_returns_first(self):
        qf = QuadraticForm(phi=np.eye(3), b=np.zeros(3), const_term=0.0)
        res = brute_force_solve(qf, levels=2)
        assert np.allclose(res.config.v, np.ones(3))
        assert res.objective == pytest.approx(3.0)

    def test_hand_enumeration(self):
        qf = QuadraticForm(phi=np.ones((2, 2)), b=np.zeros(2), const_term=0.0)
        res = brute_force_solve(qf, levels=2)
        assert res.objective == pytest.approx(4.0)
        assert np.allclose(res.config.v, np.ones(2))

    def test_dominates_heuristics(self):
        for seed in (11, 12, 13):
            qf = random_psd_qf(6, seed)
            ref = brute_force_solve(qf, levels=2)
            assert ref.objective >= pdd_solve(qf, PddParams(levels=2)).objective - 1e-9
            assert ref.objective >= bcd_solve(qf, levels=2).objective - 1e-9

    def test_rejects_huge_search(self):
        qf = random_psd_qf(6, 1)
        with pytest.raises(ValueError):
            brute_force_solve(qf, levels=16)

    def test_scaling_equivariance(self):
        qf = random_psd_qf(5, 77)
        base = brute_force_solve(qf, levels=4).config.v
        for scale in (1e-6, 1e3):
            qs = QuadraticForm(phi=scale * qf.phi, b=scale * qf.b, const_term=0.0)
            assert np.array_equal(base, brute_force_solve(qs, levels=4).config.v)


class TestPddBatch:
    def test_matches_single_slot_solver(self):
        # the batch takes the N x r factors A of Phi = A A^H, rank r < N and r = N
        n = 6
        for levels in (0, 2, 4, 8):
            params = PddParams(levels=levels, c=0.8, max_inner=30)
            for rank in (2, 4, n):
                rng = np.random.default_rng(500 + 10 * levels + rank)
                factors = cscg(rng, (12, n, rank)) / np.sqrt(n)
                bs = cscg(rng, (12, n))
                _, obj, conv = pdd_solve_batch(factors, bs, params)
                for a, b, o, c in zip(factors, bs, obj, conv):
                    qf = QuadraticForm(phi=a @ a.conj().T, b=b, const_term=0.0)
                    single = pdd_solve(qf, params)
                    assert o == pytest.approx(single.objective, rel=1e-12)
                    assert c == single.converged

    def test_rho0_from_gram_matches_full_form(self):
        rng = np.random.default_rng(3)
        for rank in (1, 3, 6, 9):
            a = cscg(rng, (5, 6, rank))
            lam_max = np.linalg.eigvalsh(a @ np.swapaxes(a.conj(), -1, -2))[:, -1]
            gram = np.swapaxes(a.conj(), -1, -2) @ a
            assert default_rho0(gram) == pytest.approx(10.0 / (2.0 * lam_max), rel=1e-12)
        assert default_rho0(np.zeros((1, 4, 4))) == 1.0


class TestPddBatchWorkingSet:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(s=st.integers(1, 40), n=st.integers(1, 12), rank_frac=st.floats(0.0, 1.0),
           levels=st.sampled_from([0, 2, 4, 8]), max_inner=st.sampled_from([2, 30]),
           decades=st.floats(0.0, 12.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_bit_for_bit(self, s, n, rank_frac, levels, max_inner,
                                           decades, seed):
        # per-item scales of Phi and b spread over `decades`, so the items stop
        # at different inner steps and outer iterations; max_inner = 2 ends
        # items on the inner cap
        rank = 1 + round(rank_frac * (n - 1))
        rng = np.random.default_rng(seed)
        phi_scale, b_scale = 10.0 ** rng.uniform(-decades / 2, decades / 2, (2, s))
        factors = cscg(rng, (s, n, rank)) * np.sqrt(phi_scale / n)[:, None, None]
        bs = cscg(rng, (s, n)) * b_scale[:, None]
        params = PddParams(levels=levels, c=0.8, max_inner=max_inner)
        u, obj, conv = pdd_solve_batch(factors, bs, params)
        ref_u, ref_obj, ref_conv = reference_pdd_batch(factors, bs, params)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(obj, ref_obj)
        assert np.array_equal(conv, ref_conv)
