import math

import numpy as np
import pytest

from ttsbeam import (
    CorrelationSpec,
    PathLossModel,
    QuadraticForm,
    RicianFactors,
    Scenario,
)
from ttsbeam.multi_user import WATER_LEVEL_TOL, WMMSE_MAX_ITERS, WMMSE_TOL, slot_rates


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


def reference_power_split(h, coef, scale, power):
    """Water-level power split written with numpy array operations throughout:
    masked eigenvalue arrays and np.add.reduce sums. An independent check on the
    library's float-loop search, which must match it bit for bit below 8
    antennas (np.add.reduce sums left to right below 8 terms)."""
    tol = WATER_LEVEL_TOL * power
    a_mat = (h.T * coef) @ h.conj()
    d, q_mat = np.linalg.eigh(a_mat)
    d = np.maximum(d, 0.0)
    t = q_mat.conj().T @ h.T
    c_i = np.add.reduce(np.abs(t) ** 2 * (np.abs(scale) ** 2)[None, :], axis=1)
    floor = d.max(initial=0.0) * 1e-15

    def total_power(mu):
        denom = d + mu
        if mu <= floor:
            keep = denom > floor
            denom = denom[keep]
            terms = c_i[keep] / (denom * denom)
        else:
            terms = c_i / (denom * denom)
        return float(np.add.reduce(terms)), -2.0 * float(np.add.reduce(terms / denom))

    mu = 0.0
    p, dp = total_power(mu)
    if p > power + tol:
        target = 1.0 / math.sqrt(power)
        for _ in range(100):
            if abs(p - power) <= tol or dp >= 0.0:
                break
            h_val = 1.0 / math.sqrt(p) - target
            h_der = -dp / (2.0 * p ** 1.5)
            mu = max(mu - h_val / h_der, 0.0)
            p, dp = total_power(mu)

    denom = d + mu
    mask = denom > floor
    inv = np.zeros_like(denom)
    inv[mask] = 1.0 / denom[mask]
    return (q_mat @ (t * inv[:, None])).T * scale[:, None], mu


def reference_wmmse(h, weights_alpha, power, noise, w0=None):
    """WMMSE with the same start, updates and stopping rule as the library,
    recomputing h.T and h.conj() in every iteration and splitting power with
    `reference_power_split`. Returns (w, mu, objective, trace, iterations)."""
    h = np.asarray(h, dtype=complex)
    k_users, m = h.shape
    weights_alpha = np.broadcast_to(np.asarray(weights_alpha, dtype=float), (k_users,))
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))
    norms = np.linalg.norm(h, axis=1)
    if np.all(norms == 0):
        return np.zeros((k_users, m), dtype=complex), 0.0, 0.0, [0.0], 0
    if w0 is not None and np.isfinite(w0).all() and np.linalg.norm(w0) > 0:
        w = np.asarray(w0, dtype=complex).copy()
        excess = np.sum(np.abs(w) ** 2) / power
        if excess > 1.0:
            w /= np.sqrt(excess)
    else:
        w = np.zeros((k_users, m), dtype=complex)
        active = norms > 0
        w[active] = h[active] / norms[active, None] * np.sqrt(power / max(active.sum(), 1))

    rates, c = slot_rates(h, w, noise)
    obj = float(weights_alpha @ rates)
    trace = [obj]
    mu = 0.0
    its = 0
    for its in range(1, WMMSE_MAX_ITERS + 1):
        powers = np.abs(c) ** 2
        gamma = np.add.reduce(powers, axis=1) + noise
        u = c.diagonal() / gamma
        mse = np.maximum(1.0 - powers.diagonal() / gamma, 1e-300)
        mw = weights_alpha / mse
        w, mu = reference_power_split(h, mw * np.abs(u) ** 2, mw * u.conj(), power)
        rates, c = slot_rates(h, w, noise)
        new_obj = float(weights_alpha @ rates)
        trace.append(new_obj)
        if new_obj - obj <= WMMSE_TOL * max(abs(obj), 1e-12):
            obj = new_obj
            break
        obj = new_obj
    return w, mu, obj, trace, its


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
