import numpy as np
import pytest

from ttsbeam import (
    CorrelationSpec,
    PathLossModel,
    QuadraticForm,
    RicianFactors,
    Scenario,
)


def cscg(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def reference_rates(v, w, ch, noise):
    """Per-user log2(1 + SINR_k), written out user by user as an independent
    check on the library's batched rate formula."""
    k_users = ch.h_r.shape[0]
    rates = np.empty(k_users)
    for k in range(k_users):
        hk = v.conj() @ np.diag(ch.h_r[k].conj()) @ ch.g + ch.h_d[k].conj()   # h_k^H
        powers = np.abs(hk @ w.T) ** 2
        interference = powers.sum() - powers[k]
        rates[k] = np.log2(1.0 + powers[k] / (interference + noise[k]))
    return rates


def random_psd_qf(n, seed, rank=None):
    """Random Hermitian-PSD quadratic form at O(1) scale."""
    rng = np.random.default_rng(seed)
    x = cscg(rng, (n, rank or n))
    phi = x @ x.conj().T / n
    b = cscg(rng, (n,))
    return QuadraticForm(phi=phi, b=b, const_term=0.0)


def small_scenario(n_shape=(2, 3), m=3, users=1, r=(0.2, 0.5, 0.5), betas_db=(-3.0, 3.0, 3.0),
                   distance=50.0):
    """Compact deployment for fast statistical tests."""
    if users == 1:
        positions = [[2.0, distance, 0.0]]
        r_rk = (r[2],)
    else:
        positions = [[2.0 + 0.5 * i, distance, 0.0] for i in range(users)]
        r_rk = tuple(min(1.0, r[2] + 0.1 * i) for i in range(users))
    return Scenario(
        ap_position=[2.0, 0.0, 0.0],
        ap_antennas=m,
        irs_position=[0.0, 50.0, 3.0],
        irs_shape=n_shape,
        user_positions=positions,
        transmit_power=10 ** ((5 - 30) / 10),
        noise_powers=[10 ** ((-80 - 30) / 10)] * users,
        path_loss=PathLossModel(c0=1e-3),
        rician=RicianFactors(*(10 ** (b / 10) for b in betas_db)),
        correlation=CorrelationSpec(r_d=r[0], r_r=r[1], r_rk=r_rk),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
