import math

import numpy as np
import pytest

from ttsbeam import (
    CorrelationSpec,
    PathLossModel,
    PddParams,
    QuadraticForm,
    RicianFactors,
    Scenario,
)
from ttsbeam import baselines
from ttsbeam.baselines import ICSI_REL_TOL
from ttsbeam.channel import InstantaneousChannels, effective_channels, quantize_phases
from ttsbeam.multi_user import (
    WATER_LEVEL_TOL,
    WMMSE_MAX_ITERS,
    WMMSE_TOL,
    WmmseState,
    slot_rates,
)
from ttsbeam.single_user import (
    BCD_MAX_SWEEPS,
    BCD_REL_TOL,
    PDD_EPS_IN,
    PDD_EPS_OUT,
    PDD_MAX_OUTER,
    _batch_quad,
    _matvec,
    default_rho0,
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
        interference = np.delete(powers, k).sum()
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
        # interference plus noise summed over j != k, as the library sums it
        powers = np.abs(c) ** 2
        own = powers.diagonal()
        ipn = np.add.reduce(powers, axis=1, where=~np.eye(k_users, dtype=bool)) + noise
        gamma = own + ipn
        u = c.diagonal() / gamma
        mse = ipn / gamma
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
    bit for bit. A slot that reaches the round cap (read from `baselines` at
    call time) ends with one more WMMSE solve for its last phases. Returns
    (v, w, round objectives)."""
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (ch.num_users,))
    v = np.ones(ch.h_r.shape[1], dtype=complex)
    w = None
    objectives = []
    for _ in range(baselines.ICSI_MAX_ROUNDS):
        w, _, obj, _, _, u, mw = _reference_wmmse(effective_channels(v, ch), weights_alpha,
                                                  power, noise, w0=w)
        objectives.append(obj)
        prev = objectives[-2] if len(objectives) > 1 else None
        if prev is not None and obj - prev <= ICSI_REL_TOL * max(abs(prev), 1e-12):
            break
        state = WmmseState(w=w, u_rx=u, weights=mw, mu=0.0, objective=obj)
        v = reference_bcd(reference_mse_quadratic_form(state, ch), levels, v0=v)[0]
    else:
        w = reference_wmmse(effective_channels(v, ch), weights_alpha, power, noise, w0=w)[0]
    return v, w, objectives


# The one-slot MSE form builder as it was before the forms were built on the
# slot stack. The library's stacked forms must match it bit for bit.
def reference_mse_quadratic_form(state: WmmseState, ch: InstantaneousChannels) -> QuadraticForm:
    """Weighted-MSE surrogate as a quadratic in v, with receivers/weights fixed.

    sum_k mw_k e_k = v^H Phi v + 2 Re{v^H b} + const, so minimizing it over the
    grid is the same maximization problem with (Phi, b) negated.
    """
    k_users, n = ch.h_r.shape
    phi = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    for k in range(k_users):
        g = ch.h_r[k].conj()[None, :] * (ch.g @ state.w.T).T      # (K, N), rows g_kj
        cd = state.w @ ch.h_d[k].conj()                            # (K,), h_d^H w_j
        coef = state.weights[k] * np.abs(state.u_rx[k]) ** 2
        phi += coef * (g.T @ g.conj())
        b += coef * (g * cd.conj()[:, None]).sum(axis=0)
        b -= state.weights[k] * state.u_rx[k].conj() * g[k]
    return QuadraticForm(phi=-phi, b=-b, const_term=0.0)


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


# `pdd_solve_batch` as it was before its working set dropped each finished
# row at once: inactive rows compacted once they are a quarter of the set,
# and a for-else flush at max_inner. The library must match it bit for bit.
def reference_pdd_batch(
    phis: np.ndarray, bs: np.ndarray, params: PddParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the penalty solver on many independent quadratic forms at once.

    Despite its name, which the benchmark's tracer reads, `phis` holds the
    (S, N, M) factors A_s of the forms Phi_s = A_s A_s^H, so no (S, N, N)
    array is built; `bs` is (S, N). Each slot follows `pdd_solve` on
    A_s A_s^H up to rounding (the factored products round differently, so
    objectives agree to a few ulps, not bit for bit); slots that hit a
    stopping rule drop out of the working set so slow slots do not cost
    full-batch compute. Returns (u, objectives, converged) with shapes
    (S, N), (S,), (S,).
    """
    phis = np.asarray(phis, dtype=complex)
    bs = np.asarray(bs, dtype=complex)
    s, n = bs.shape

    v_all = np.ones((s, n), dtype=complex)
    u_all = quantize_phases(np.angle(v_all), params.levels)
    lam_all = np.zeros((s, n), dtype=complex)
    rho_all = default_rho0(np.swapaxes(phis.conj(), -1, -2) @ phis)

    best_obj = _batch_quad(u_all, _matvec(phis, u_all), bs)
    best_u = u_all.copy()
    pending = np.ones(s, dtype=bool)
    converged = np.zeros(s, dtype=bool)

    idx = np.arange(0)
    for _ in range(PDD_MAX_OUTER):
        if not pending.any():
            break
        if pending.sum() != idx.size:      # the pending set only shrinks
            idx = np.flatnonzero(pending)
            ph_idx, b_idx = phis[idx], bs[idx]
        ph, b, v, u = ph_idx, b_idx, v_all[idx], u_all[idx]
        # rho and lam are fixed through the inner loop
        rho = rho_all[idx]
        rho_lam = rho[:, None] * lam_all[idx]
        two_rho = 2.0 * rho

        def al_of(vv, phi_vv, uu):
            resid = vv - uu + rho_lam
            return (-_batch_quad(vv, phi_vv, b)
                    + np.einsum("sn,sn->s", resid.conj(), resid).real / two_rho)

        phi_v = _matvec(ph, v)
        al_prev = al_of(v, phi_v, u)
        # Working rows: `live` maps them to positions within idx. A row whose
        # inner loop stops is saved and marked inactive; inactive rows are
        # dropped only once they are a quarter of the working set, so the
        # working arrays are not copied at every stop.
        live = np.arange(idx.size)
        active = np.ones(idx.size, dtype=bool)
        for _ in range(params.max_inner):
            c = u - rho_lam + two_rho[:, None] * (phi_v + b)
            nrm2 = np.einsum("sn,sn->s", c.conj(), c).real
            scale = np.where(nrm2 <= n, 1.0, np.sqrt(n / np.maximum(nrm2, 1e-300)))
            v = c * scale[:, None]
            x = v + rho_lam
            u = quantize_phases(np.arctan2(x.imag, x.real), params.levels)
            phi_v = _matvec(ph, v)
            al_new = al_of(v, phi_v, u)
            done = active & (np.abs(al_prev - al_new)
                             <= PDD_EPS_IN * np.maximum(np.abs(al_prev), 1e-300))
            al_prev = al_new
            if done.any():
                fin = np.flatnonzero(done)
                v_all[idx[live[fin]]] = v[fin]
                u_all[idx[live[fin]]] = u[fin]
                active &= ~done
                n_active = np.count_nonzero(active)
                if n_active == 0:
                    break
                if 4 * n_active <= 3 * active.size:
                    keep = active
                    live, active = live[keep], active[keep]
                    v, u, rho_lam, two_rho = v[keep], u[keep], rho_lam[keep], two_rho[keep]
                    ph, b, phi_v, al_prev = ph[keep], b[keep], phi_v[keep], al_prev[keep]
        else:
            v_all[idx[live[active]]] = v[active]
            u_all[idx[live[active]]] = u[active]

        vv, uu = v_all[idx], u_all[idx]
        obj_u = _batch_quad(uu, _matvec(ph_idx, uu), b_idx)
        better = obj_u > best_obj[idx]
        best_obj[idx] = np.where(better, obj_u, best_obj[idx])
        best_u[idx] = np.where(better[:, None], uu, best_u[idx])
        lam_all[idx] += (vv - uu) / rho_all[idx][:, None]
        viol = np.max(np.abs(vv - uu), axis=1)
        newly = viol < PDD_EPS_OUT
        converged[idx[newly]] = True
        pending[idx[newly]] = False
        rho_all[idx[~newly]] *= params.c

    return best_u, best_obj.copy(), converged


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
