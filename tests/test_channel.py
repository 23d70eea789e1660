import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttsbeam import (
    build_quadratic_form,
    build_scsi,
    effective_channels,
    exp_correlation,
    kron_correlation,
    path_loss,
    psd_sqrt,
    sample_batch,
    sample_instantaneous,
    substream,
)
from ttsbeam.channel import (
    GRID_ANGLE_TOL,
    InstantaneousChannels,
    PhaseConfig,
    nearest_level,
    quantize_phases,
)

from conftest import cscg, reference_nearest_level, small_scenario


def grid_steps(theta, levels):
    """An angle in grid steps, computed as `nearest_level` does."""
    return np.mod(theta, 2.0 * np.pi) * levels / (2.0 * np.pi)


def tie_angle(k, levels):
    """An angle within 16 ulps of the tie between levels k and k + 1 whose grid
    steps are exactly k + 1/2, or the nearest float to the tie if none is."""
    theta = (k + 0.5) * 2.0 * np.pi / levels
    up = down = theta
    for _ in range(16):
        for t in (up, down):
            if grid_steps(t, levels) == k + 0.5:
                return float(t)
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
    return theta


@st.composite
def angles_and_levels(draw):
    levels = draw(st.integers(1, 16))
    angle = st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(-1e12, 1e12),
        st.sampled_from([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi]),
        st.integers(0, levels - 1).map(lambda k: tie_angle(k, levels)),    # incl. the wrap tie
        st.integers(0, levels - 1).map(lambda k: -tie_angle(k, levels)),
    )
    theta = draw(angle | st.lists(angle, max_size=12).map(np.array))
    return theta, levels


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 3.4, 1e-3, 1.0) == pytest.approx(1e-3)

    def test_matches_log_domain(self):
        # independent dB-domain computation of the same power law
        got = path_loss(50.0, 2.2, 1e-3, 1.0)
        db = 10 * np.log10(1e-3) - 2.2 * 10 * np.log10(50.0 / 1.0)
        assert got == pytest.approx(10 ** (db / 10), rel=1e-12)

    def test_zero_exponent(self):
        assert path_loss(10.0, 0.0, 1e-3) == pytest.approx(1e-3)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 2.0, 1e-3)
        with pytest.raises(ValueError):
            path_loss(-1.0, 2.0, 1e-3)


class TestExpCorrelation:
    def test_uncorrelated_is_identity(self):
        assert np.array_equal(exp_correlation(4, 0.0), np.eye(4))

    def test_fully_correlated_is_ones(self):
        assert np.array_equal(exp_correlation(3, 1.0), np.ones((3, 3)))

    def test_half_coefficient(self):
        expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.allclose(exp_correlation(3, 0.5), expected)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exp_correlation(3, 1.1)
        with pytest.raises(ValueError):
            exp_correlation(3, -0.1)

    @pytest.mark.parametrize("r", np.linspace(0.0, 1.0, 11))
    def test_psd_over_grid(self, r):
        for n in (2, 8, 33, 64):
            eigs = np.linalg.eigvalsh(exp_correlation(n, float(r)))
            assert eigs.min() >= -1e-10


class TestKronCorrelation:
    def test_identity_factors(self):
        assert np.array_equal(kron_correlation(np.eye(2), np.eye(2)), np.eye(4))

    def test_trivial_factor(self):
        phi = exp_correlation(2, 0.3)
        assert np.array_equal(kron_correlation(phi, np.eye(1)), phi)

    def test_explicit_expansion(self):
        a = exp_correlation(2, 0.5)
        out = kron_correlation(a, a)
        # hand expansion: block (i, j) of the product is a[i, j] * a
        expected = np.block([[a[0, 0] * a, a[0, 1] * a], [a[1, 0] * a, a[1, 1] * a]])
        assert np.allclose(out, expected)
        assert out[1, 2] == pytest.approx(0.25)
        assert np.allclose(np.diag(out), 1.0)
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            kron_correlation(np.array([[1.0, 0.2], [0.3, 1.0]]), np.eye(2))
        with pytest.raises(ValueError):
            kron_correlation(2.0 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            kron_correlation(np.eye(2) + 0j, np.eye(2))

    def test_rejects_asymmetry_within_default_rtol(self):
        # 5e-6 passes np.allclose's default rtol=1e-5 but is 5e4 times SYM_TOL
        phi = exp_correlation(4, 0.5)
        phi[0, 1] += 5e-6
        with pytest.raises(ValueError, match="symmetric"):
            kron_correlation(phi, np.eye(2))

    def test_rejects_diagonal_within_default_rtol(self):
        # the unit-diagonal bound is absolute: 9e-6 is 9e3 times it
        phi = exp_correlation(4, 0.5)
        phi[2, 2] = 1.000009
        with pytest.raises(ValueError, match="unit diagonal"):
            kron_correlation(np.eye(2), phi)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        phi = exp_correlation(3, 0.5)
        s = psd_sqrt(phi)
        assert np.linalg.norm(s @ s - phi) <= 1e-10

    def test_reconstruction_random_psd(self, rng):
        for _ in range(10):
            x = rng.standard_normal((6, 6))
            phi = x @ x.T
            s = psd_sqrt(phi)
            assert np.linalg.norm(s @ s - phi) <= 1e-8 * np.linalg.norm(phi)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_rejects_asymmetric_and_complex(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ValueError):
            psd_sqrt(np.eye(2).astype(complex))

    def test_rejects_asymmetry_within_default_rtol(self):
        # accepted, this matrix would get a root whose square misses it by 5e-6
        phi = exp_correlation(4, 0.5)
        phi[0, 1] += 5e-6
        with pytest.raises(ValueError, match="symmetric"):
            psd_sqrt(phi)

    def test_symmetry_bound_scales_with_the_matrix(self):
        # asymmetry 1e-12 relative to the largest entry is rounding, at any scale
        phi = 1e6 * exp_correlation(4, 0.5)
        phi[0, 1] += 1e-6
        s = psd_sqrt(phi)
        assert np.linalg.norm(s @ s - phi) <= 1e-8 * np.linalg.norm(phi)

    def test_clamps_tiny_negative(self):
        phi = np.diag([1.0, -5e-11])
        s = psd_sqrt(phi)
        assert s[1, 1] == 0.0

    @settings(derandomize=True, deadline=None)
    @given(n_h=st.integers(1, 8), n_v=st.integers(1, 5), r_h=st.floats(0.99, 1.0),
           r_v=st.floats(0.99, 1.0), kron=st.booleans())
    def test_near_full_correlation(self, n_h, n_v, r_h, r_v, kron):
        # as r -> 1 all but one eigenvalue go to 0, and rounding makes some negative
        if kron:
            phi = kron_correlation(exp_correlation(n_h, r_h), exp_correlation(n_v, r_v))
        else:
            phi = exp_correlation(n_h * n_v, r_h)
        s = psd_sqrt(phi)
        assert np.linalg.norm(s - s.T) <= 1e-12 * np.linalg.norm(s)
        assert np.linalg.norm(s @ s - phi) <= 1e-8 * np.linalg.norm(phi)


class TestBuildScsi:
    def test_deterministic_limit(self):
        # huge Rician factor: scattered power vanishes, |zbar|^2 -> gain * N
        scen = small_scenario(n_shape=(8, 8), betas_db=(120.0, 120.0, 120.0))
        gain = path_loss(float(np.linalg.norm(scen.user_positions[0] - scen.irs_position)),
                         3.0, 1e-3)
        norms = []
        for i in range(500):
            scsi = build_scsi(scen, substream(7, "det", i))
            norms.append(np.linalg.norm(scsi.zbar_r[0]) ** 2)
            assert scsi.s_iu[0] <= 1e-5 * np.sqrt(gain)
        assert np.mean(norms) == pytest.approx(gain * 64, rel=0.01)

    def test_rayleigh_limit(self):
        scen = small_scenario(betas_db=(-300.0, 3.0, -300.0))
        scen.rician.beta_au = 0.0
        scen.rician.beta_iu = 0.0
        scsi = build_scsi(scen, substream(1, "ray"))
        assert np.all(scsi.zbar_r == 0)
        assert np.all(scsi.zbar_d == 0)
        gain = path_loss(float(np.linalg.norm(scen.user_positions[0] - scen.irs_position)),
                         3.0, 1e-3)
        assert scsi.s_iu[0] ** 2 == pytest.approx(gain, rel=1e-12)

    def test_power_split_at_3db(self):
        # beta = 3 dB puts beta/(1+beta) ~ 0.6661 of per-entry power in the mean
        beta = 10 ** 0.3
        frac = beta / (1 + beta)
        assert frac == pytest.approx(0.6661, abs=5e-4)
        scen = small_scenario(n_shape=(4, 4), betas_db=(3.0, 3.0, 3.0))
        scsi = build_scsi(scen, substream(3, "split"))
        _, h_r, _ = sample_batch(scsi, 100_000, substream(3, "mc"))
        total = np.mean(np.sum(np.abs(h_r[:, 0, :]) ** 2, axis=1))
        analytic = np.linalg.norm(scsi.zbar_r[0]) ** 2 + 16 * scsi.s_iu[0] ** 2
        assert total == pytest.approx(analytic, rel=0.01)
        # fraction of deterministic power over many statistics draws
        fracs = []
        for i in range(200):
            s = build_scsi(scen, substream(3, "frac", i))
            det = np.linalg.norm(s.zbar_r[0]) ** 2
            fracs.append(det / (det + 16 * s.s_iu[0] ** 2))
        assert np.mean(fracs) == pytest.approx(frac, rel=0.01)

    def test_seed_reproducibility(self):
        scen = small_scenario()
        a = build_scsi(scen, substream(11, "scsi", 0))
        b = build_scsi(scen, substream(11, "scsi", 0))
        assert np.array_equal(a.zbar_r, b.zbar_r)
        assert np.array_equal(a.fbar, b.fbar)
        assert np.array_equal(a.zbar_d, b.zbar_d)


class TestSampling:
    def test_zero_scatter_returns_means(self):
        scen = small_scenario(betas_db=(120.0, 120.0, 120.0))
        scsi = build_scsi(scen, substream(5, "s"))
        scsi.s_au[:] = 0.0
        scsi.s_iu[:] = 0.0
        scsi.s_ai = 0.0
        ch = sample_instantaneous(scsi, substream(5, "x"))
        assert np.array_equal(ch.g, scsi.fbar)
        assert np.array_equal(ch.h_r[0], scsi.zbar_r[0])
        assert np.array_equal(ch.h_d[0], scsi.zbar_d[0])

    def test_sample_mean_converges_to_deterministic_part(self):
        scen = small_scenario(n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(8, "s"))
        g, _, _ = sample_batch(scsi, 100_000, substream(8, "mc"))
        se = scsi.s_ai / np.sqrt(g.shape[0])
        assert np.all(np.abs(g.mean(axis=0) - scsi.fbar) <= 3 * se)

    def test_column_covariance(self):
        scen = small_scenario(n_shape=(2, 3), m=2)
        scsi = build_scsi(scen, substream(9, "s"))
        scsi.fbar[:] = 0.0
        scsi.phi_d = np.eye(2)
        scsi.phi_d_sqrt = np.eye(2)
        g, _, _ = sample_batch(scsi, 100_000, substream(9, "mc"))
        col = g[:, :, 0]
        cov = (col.conj().T @ col) / col.shape[0]
        target = scsi.s_ai ** 2 * scsi.phi_r
        err = np.linalg.norm(cov - target) / np.linalg.norm(target)
        assert err <= 0.02

    def test_stream_reproducibility(self):
        scen = small_scenario()
        scsi = build_scsi(scen, substream(2, "s"))
        a = sample_instantaneous(scsi, substream(2, "samples", 0, 5))
        b = sample_instantaneous(scsi, substream(2, "samples", 0, 5))
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h_r, b.h_r)
        assert np.array_equal(a.h_d, b.h_d)


class TestEffectiveChannel:
    def test_zero_reflection_leaves_direct_path(self, rng):
        ch = InstantaneousChannels(g=cscg(rng, (4, 2)), h_r=cscg(rng, (1, 4)),
                                   h_d=cscg(rng, (1, 2)))
        out = effective_channels(np.zeros(4), ch)[0]
        assert np.allclose(out, ch.h_d[0])

    def test_scalar_case(self, rng):
        ch = InstantaneousChannels(g=cscg(rng, (1, 1)), h_r=cscg(rng, (1, 1)),
                                   h_d=cscg(rng, (1, 1)))
        v = np.exp(1j * 0.7)
        out = effective_channels(np.array([v]), ch)[0]
        by_hand = np.conj(v.conj() * ch.h_r[0, 0].conj() * ch.g[0, 0] + ch.h_d[0, 0].conj())
        assert out[0] == pytest.approx(by_hand)

    def test_matches_reflection_matrix_form(self, rng):
        n, m = 5, 3
        ch = InstantaneousChannels(g=cscg(rng, (n, m)), h_r=cscg(rng, (2, n)),
                                   h_d=cscg(rng, (2, m)))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        theta = np.diag(v.conj())
        for k in range(2):
            ref = (ch.h_r[k].conj() @ theta @ ch.g + ch.h_d[k].conj()).conj()
            assert np.allclose(effective_channels(v, ch)[k], ref)

    @pytest.mark.parametrize("per_slot_phases", [False, True])
    def test_slot_stack_matches_per_slot_calls(self, rng, per_slot_phases):
        s, k, n, m = 5, 3, 6, 4
        stack = InstantaneousChannels(g=cscg(rng, (s, n, m)), h_r=cscg(rng, (s, k, n)),
                                      h_d=cscg(rng, (s, k, m)))
        shape = (s, n) if per_slot_phases else (n,)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
        out = effective_channels(v, stack)
        assert out.shape == (s, k, m)
        assert stack.num_users == k
        for i in range(s):
            vi = v[i] if per_slot_phases else v
            assert np.array_equal(out[i], effective_channels(vi, stack.slot(i)))

    def test_mean_channel_is_the_deterministic_parts(self):
        scsi = build_scsi(small_scenario(users=2), substream(3, "s"))
        v = np.exp(1j * np.linspace(0.0, 3.0, scsi.num_elements))
        ref = (scsi.zbar_r * v[None, :]) @ scsi.fbar.conj() + scsi.zbar_d
        assert np.array_equal(scsi.mean_effective_channels(v), ref)


class TestPhaseConfig:
    def test_unit_mode_enforced(self):
        # moduli within 1e-5 relative of 1 are still off the unit circle
        for v, levels in ((np.array([0.5 + 0j, 1.0]), 0), (np.array([1.0 + 1e-6, 1.0]), 0),
                          (np.full(4, -1.000009), 2), (np.array([np.nan, 1.0]), 0)):
            with pytest.raises(ValueError):
                PhaseConfig(v, levels=levels)

    def test_grid_membership_enforced(self):
        with pytest.raises(ValueError):
            PhaseConfig(np.exp(1j * np.array([0.3])), levels=2)
        PhaseConfig(np.exp(1j * np.array([0.0, np.pi])), levels=2)

    @settings(derandomize=True, deadline=None)
    @given(levels=st.integers(1, 16), data=st.data())
    def test_grid_membership_property(self, levels, data):
        idx = np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=1, max_size=8)))
        turns = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=idx.size,
                                            max_size=idx.size)))
        angles = 2.0 * np.pi * idx / levels + 2.0 * np.pi * turns
        PhaseConfig(np.exp(1j * angles), levels=levels)
        # one phase moved off the grid by more than the tolerance, at most half a step
        i = data.draw(st.integers(0, idx.size - 1))
        log_off = data.draw(st.floats(np.log10(2.0 * GRID_ANGLE_TOL), np.log10(np.pi / levels)))
        angles[i] += data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** log_off
        with pytest.raises(ValueError):
            PhaseConfig(np.exp(1j * angles), levels=levels)

    def test_quantize_tie_prefers_lowest_index(self):
        # exactly halfway between grid points 0 and 1 for L = 4
        theta = np.array([np.pi / 4])
        out = quantize_phases(theta, 4)
        assert out[0] == pytest.approx(1.0 + 0.0j)


class TestNearestLevel:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(case=angles_and_levels())
    def test_matches_reference_and_brute_force(self, case):
        theta, levels = case
        got = nearest_level(theta, levels)
        assert got.shape == np.shape(theta)
        assert np.array_equal(got, reference_nearest_level(theta, levels))
        # lowest index at the least wrap-around distance in grid steps; the wrap
        # tie's lowest index is 0
        dist = np.abs(grid_steps(np.asarray(theta), levels)[..., None] - np.arange(levels))
        assert np.array_equal(got, np.argmin(np.minimum(dist, levels - dist), axis=-1))

    def test_exact_ties(self):
        exact = 0
        for levels in range(1, 17):
            for k in range(levels):
                theta = tie_angle(k, levels)
                if grid_steps(theta, levels) != k + 0.5:
                    continue
                exact += 1
                want = 0 if k == levels - 1 else k
                assert nearest_level(theta, levels) == want
        assert exact >= 100         # 104 of the 136 ties have an exact angle


    # np.mod warns on an infinite angle before nearest_level sees the NaN
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("theta", [np.array([np.nan, 1.0]), np.array([1.0, np.inf]),
                                       np.array([[0.5, -np.inf]]), np.nan])
    def test_non_finite_angle_raises(self, theta):
        # a NaN used to map to an arbitrary level: [nan, 1.0] at L = 4 gave [0, 1]
        for levels in (1, 3, 4):
            with pytest.raises(FloatingPointError):
                nearest_level(theta, levels)
            with pytest.raises(FloatingPointError):
                quantize_phases(theta, levels)


class TestQuantizePhases:
    # the grid step of the penalty solver: u = quantize_phases(angle(v + rho*lam))

    def test_fixed_point(self):
        v = np.exp(2j * np.pi * np.array([0, 1, 3]) / 4)
        assert np.allclose(quantize_phases(np.angle(v), 4), v)

    def test_nearest_level(self):
        assert quantize_phases(np.array([0.1]), 2)[0] == pytest.approx(1.0 + 0j)

    def test_minimizes_over_grid(self, rng):
        n, levels = 6, 4
        target = cscg(rng, (n,))
        u = quantize_phases(np.angle(target), levels)
        grid = np.exp(2j * np.pi * np.arange(levels) / levels)
        for i in range(n):
            dists = np.abs(target[i] - grid) ** 2
            assert np.abs(target[i] - u[i]) ** 2 <= dists.min() + 1e-12


class TestSecondMomentConsistency:
    def test_monte_carlo_matches_analytic_expansion(self):
        # cross-module: sampled ||h_eff||^2 agrees with the closed quadratic form
        scen = small_scenario(n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(21, "s"))
        qf = build_quadratic_form(scsi)
        rng = substream(21, "v")
        for _ in range(3):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            g, h_r, h_d = sample_batch(scsi, 100_000, substream(21, "mc"))
            h_eff = np.einsum("sn,snm->sm", h_r[:, 0, :] * v, g.conj()) + h_d[:, 0, :]
            mc = np.mean(np.sum(np.abs(h_eff) ** 2, axis=1))
            assert mc == pytest.approx(qf.expected_gain(v), rel=0.01)
