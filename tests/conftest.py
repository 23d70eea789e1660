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
from ttsbeam.baselines import ICSI_MAX_ROUNDS, ICSI_REL_TOL, _mse_quadratic_form
from ttsbeam.channel import effective_channels
from ttsbeam.multi_user import (
    WATER_LEVEL_TOL,
    WMMSE_MAX_ITERS,
    WMMSE_TOL,
    WmmseState,
    slot_rates,
)
from ttsbeam.single_user import BCD_MAX_SWEEPS, BCD_REL_TOL


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
    return _reference_wmmse(h, weights_alpha, power, noise, w0)[:5]


def _reference_wmmse(h, weights_alpha, power, noise, w0=None):
    """`reference_wmmse`, followed by the final receive scalars and MSE weights."""
    h = np.asarray(h, dtype=complex)
    k_users, m = h.shape
    weights_alpha = np.broadcast_to(np.asarray(weights_alpha, dtype=float), (k_users,))
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))
    norms = np.linalg.norm(h, axis=1)
    if np.all(norms == 0):
        return (np.zeros((k_users, m), dtype=complex), 0.0, 0.0, [0.0], 0,
                np.zeros(k_users, dtype=complex), weights_alpha.copy())
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
    u, mw = np.zeros(k_users, dtype=complex), weights_alpha.copy()
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
    return w, mu, obj, trace, its, u, mw


def reference_icsi_per_slot(ch, levels, weights_alpha, power, noise):
    """The multi-user per-slot design of one slot, written as one slot's own
    loop of alternating rounds on `reference_wmmse` and `reference_bcd`: an
    independent check on the library's slot-stack rounds, which must match it
    bit for bit. Returns (v, w, round objectives)."""
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (ch.num_users,))
    v = np.ones(ch.h_r.shape[1], dtype=complex)
    w = None
    objectives = []
    for _ in range(ICSI_MAX_ROUNDS):
        w, _, obj, _, _, u, mw = _reference_wmmse(effective_channels(v, ch), weights_alpha,
                                                  power, noise, w0=w)
        objectives.append(obj)
        prev = objectives[-2] if len(objectives) > 1 else None
        if prev is not None and obj - prev <= ICSI_REL_TOL * max(abs(prev), 1e-12):
            break
        state = WmmseState(w=w, u_rx=u, mse=None, weights=mw, mu=0.0, objective=obj)
        v = reference_bcd(_mse_quadratic_form(state, ch), levels, v0=v)[0]
    w = reference_wmmse(effective_channels(v, ch), weights_alpha, power, noise, w0=w)[0]
    return v, w, objectives


def reference_nearest_level(theta, levels):
    """Nearest grid index through floor and fraction, with explicit tie rules:
    an independent check on the library's ceil(x - 1/2) rule, which must match
    it bit for bit."""
    theta = np.asarray(theta, dtype=float)
    x = np.mod(theta, 2.0 * np.pi) * levels / (2.0 * np.pi)
    base = np.floor(x)
    frac = x - base
    idx = np.where(frac > 0.5, base + 1.0, base)
    # wrap tie between the last level and level 0 resolves to 0
    idx = np.where((frac == 0.5) & (base == levels - 1), 0.0, idx)
    return (idx.astype(int)) % levels


def reference_bcd(qf, levels, v0=None):
    """Coordinate descent with the library's start, sweep and stopping rule,
    quantizing each coordinate through a one-element numpy array and
    `reference_nearest_level`. Returns (v, objective, sweep objectives)."""

    def quantize(theta):
        if levels == 0:
            return np.exp(1j * np.asarray(theta, dtype=float))
        return np.exp(1j * (2.0 * np.pi * np.arange(levels) / levels))[
            reference_nearest_level(theta, levels)]

    n = qf.size
    v = np.ones(n, dtype=complex) if v0 is None else np.asarray(v0, dtype=complex).copy()
    if levels != 0:
        v = quantize(np.angle(v))
    obj = qf.quadratic(v)
    history = [obj]
    for _ in range(BCD_MAX_SWEEPS):
        for i in range(n):
            q = qf.phi[i] @ v - qf.phi[i, i] * v[i] + qf.b[i]
            if q == 0:
                continue
            v[i] = quantize(np.array([np.angle(q)]))[0]
        new_obj = qf.quadratic(v)
        history.append(new_obj)
        if new_obj - obj <= BCD_REL_TOL * max(abs(obj), 1e-300):
            obj = new_obj
            break
        obj = new_obj
    return v, obj, history


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
