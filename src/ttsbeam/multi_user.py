"""Multiuser pipeline: per-slot WMMSE precoding, rate gradients w.r.t. the
reflection vector, and the stochastic surrogate ascent that optimizes the
long-term phases from channel samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CONTINUOUS,
    InstantaneousChannels,
    PhaseConfig,
    StatisticalCsi,
    effective_channels,
    phase_vector,
    quantize_phases,
    sample_batch,
)
from .single_user import mrt_precoder

LOG2E = 1.0 / np.log(2.0)

WMMSE_TOL = 1e-6            # relative weighted-sum-rate gain that ends WMMSE
WMMSE_MAX_ITERS = 200
WATER_LEVEL_TOL = 1e-10     # water-level search stops within this fraction of P


# ---------------------------------------------------------------------------
# instantaneous rates and their gradients
# ---------------------------------------------------------------------------

@dataclass
class RatePartials:
    """Per-user received-power splits and gradient ingredients.

    gamma[k] is the total received power plus noise at user k, gamma_minus[k]
    excludes the own-signal term. a[k] / a_minus[k] are the matching conjugate
    gradients of those powers w.r.t. the reflection vector.
    """

    gamma: np.ndarray          # (K,)
    gamma_minus: np.ndarray    # (K,)
    a: np.ndarray              # (K, N) complex
    a_minus: np.ndarray        # (K, N) complex


def instantaneous_rates(
    v, w: np.ndarray, ch: InstantaneousChannels, noise: np.ndarray
) -> tuple[np.ndarray, RatePartials]:
    """Per-user rates log2(gamma/gamma_minus) for fixed precoders.

    `w` holds the K precoders as rows (K, M). Also returns the quantities
    needed by `rate_jacobian`.
    """
    vv = phase_vector(v)
    w = np.asarray(w, dtype=complex)
    k_users, n = ch.h_r.shape
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))

    gamma = np.empty(k_users)
    gamma_minus = np.empty(k_users)
    a = np.zeros((k_users, n), dtype=complex)
    a_minus = np.zeros((k_users, n), dtype=complex)
    for k in range(k_users):
        # g[j] = diag(h_{r,k}^H) G w_j ; c[j] = h_k^H w_j = v^H g[j] + h_{d,k}^H w_j
        g = ch.h_r[k].conj()[None, :] * (ch.g @ w.T).T        # (K, N)
        c = g @ vv.conj() + w @ ch.h_d[k].conj()              # (K,)
        powers = np.abs(c) ** 2
        grads = g * c.conj()[:, None]                          # d|c_j|^2 / d v^*
        gamma[k] = powers.sum() + noise[k]
        gamma_minus[k] = gamma[k] - powers[k]
        a[k] = grads.sum(axis=0)
        a_minus[k] = a[k] - grads[k]
    rates = np.log2(gamma / gamma_minus)
    return rates, RatePartials(gamma=gamma, gamma_minus=gamma_minus, a=a, a_minus=a_minus)


def rate_jacobian(partials: RatePartials) -> np.ndarray:
    """Conjugate-gradient Jacobian of the rate vector, shape (N, K).

    Column k is (1/ln 2) * (a_k / gamma_k - a_{-k} / gamma_{-k}); the 1/ln 2
    factor converts the natural-log gradient to bits. For a real perturbation
    of v_n the rate moves by 2 Re{J[n, k]} per unit step, for an imaginary
    perturbation by 2 Im{J[n, k]}.
    """
    cols = (partials.a / partials.gamma[:, None]
            - partials.a_minus / partials.gamma_minus[:, None])
    return LOG2E * cols.T


# ---------------------------------------------------------------------------
# weighted-MMSE precoding
# ---------------------------------------------------------------------------

@dataclass
class WmmseState:
    """Converged precoders plus the internals of the final iteration."""

    w: np.ndarray              # (K, M)
    u_rx: np.ndarray           # (K,) receive scalars
    mse: np.ndarray            # (K,)
    weights: np.ndarray        # (K,) MSE weights alpha_k / e_k
    mu: float                  # power Lagrange multiplier
    objective: float           # weighted sum-rate, bits/s/Hz
    trace: list[float] = field(default_factory=list)
    iterations: int = 0


def slot_rates(h: np.ndarray, w: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rates log2(1 + SINR_k) for effective channels h and precoders w.

    h and w are (..., K, M) with the K precoders as rows; leading axes
    broadcast, so one (K, M) precoder set can serve a stack of slots. Returns
    the (..., K) rates and the cross gains c[..., k, j] = h_k^H w_j.
    """
    c = h.conj() @ np.swapaxes(w, -1, -2)
    powers = np.abs(c) ** 2
    total = np.add.reduce(powers, axis=-1) + noise
    own = powers.diagonal(axis1=-2, axis2=-1)
    # a user without signal has rate 0; a NaN channel stays NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(own == 0, 0.0, own / (total - own))
    return np.log2(1.0 + sinr), c


def _solve_power_split(
    h: np.ndarray, coef: np.ndarray, scale: np.ndarray, power: float
) -> tuple[np.ndarray, float]:
    """Precoders w_k = scale_k (A + mu I)^{-1} h_k with A = h^H diag(coef) h.

    mu >= 0 is chosen so the total power meets the budget with complementary
    slackness: mu = 0 when the unconstrained solution is feasible, otherwise
    a monotone root search drives sum ||w_k||^2 to P, within WATER_LEVEL_TOL * P.
    """
    tol = WATER_LEVEL_TOL * power
    a_mat = (h.T * coef) @ h.conj()
    d, q_mat = np.linalg.eigh(a_mat)
    d = np.maximum(d, 0.0)
    t = q_mat.conj().T @ h.T                     # (M, K), t[:, k] = Q^H h_k
    c_i = np.add.reduce(np.abs(t) ** 2 * (np.abs(scale) ** 2)[None, :], axis=1)

    floor = max(d.max(initial=0.0), 1.0) * 1e-15

    # called several times per WMMSE iteration: plain reductions and
    # math.sqrt keep the per-call overhead low
    def total_power(mu: float) -> tuple[float, float]:
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
        # Newton on 1/sqrt(p(mu)), which is exactly linear in mu for a rank-one
        # profile and near-linear otherwise, so a handful of steps suffice
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
    w = (q_mat @ (t * inv[:, None])).T * scale[:, None]
    return w, mu


def wmmse_solve(
    h: np.ndarray,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
    w0: np.ndarray | None = None,
) -> WmmseState:
    """Weighted sum-rate maximization over the effective channels h (K, M).

    Alternates (i) MMSE receive scalars, (ii) MSE weights alpha_k / e_k,
    (iii) regularized-inverse precoders with a power bisection, until the
    weighted sum-rate improves by less than WMMSE_TOL relative.
    """
    h = np.asarray(h, dtype=complex)
    k_users, m = h.shape
    weights_alpha = np.broadcast_to(np.asarray(weights_alpha, dtype=float), (k_users,))
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))

    norms = np.linalg.norm(h, axis=1)
    if np.all(norms == 0):
        zeros = np.zeros((k_users, m), dtype=complex)
        return WmmseState(w=zeros, u_rx=np.zeros(k_users, dtype=complex),
                          mse=np.ones(k_users), weights=weights_alpha.copy(),
                          mu=0.0, objective=0.0, trace=[0.0], iterations=0)

    if w0 is not None and np.isfinite(w0).all() and np.linalg.norm(w0) > 0:
        w = np.asarray(w0, dtype=complex).copy()
        excess = np.sum(np.abs(w) ** 2) / power
        if excess > 1.0:
            w /= np.sqrt(excess)
    else:
        # MRT directions with an equal power split (zero channels get nothing)
        w = np.zeros((k_users, m), dtype=complex)
        active = norms > 0
        w[active] = h[active] / norms[active, None] * np.sqrt(power / max(active.sum(), 1))

    rates, c = slot_rates(h, w, noise)
    obj = float(weights_alpha @ rates)
    trace = [obj]
    u = np.zeros(k_users, dtype=complex)
    mse = np.ones(k_users)
    mw = weights_alpha.copy()
    mu = 0.0
    its = 0
    for its in range(1, WMMSE_MAX_ITERS + 1):
        powers = np.abs(c) ** 2
        gamma = np.add.reduce(powers, axis=1) + noise
        u = c.diagonal() / gamma
        mse = 1.0 - powers.diagonal() / gamma
        mse = np.maximum(mse, 1e-300)
        mw = weights_alpha / mse
        coef = mw * np.abs(u) ** 2
        scale = mw * u.conj()
        w, mu = _solve_power_split(h, coef, scale, power)
        rates, c = slot_rates(h, w, noise)
        new_obj = float(weights_alpha @ rates)
        trace.append(new_obj)
        if new_obj - obj <= WMMSE_TOL * max(abs(obj), 1e-12):
            obj = new_obj
            break
        obj = new_obj
    return WmmseState(w=w, u_rx=u, mse=mse, weights=mw, mu=mu,
                      objective=obj, trace=trace, iterations=its)


def precoders(h: np.ndarray, weights_alpha: np.ndarray, power: float, noise: np.ndarray) -> np.ndarray:
    """Fast-timescale precoders for effective channels h (..., K, M), per item.

    One user gets MRT; more users get WMMSE, solved item by item through the
    module-level `wmmse_solve` so that wrapping that name sees every call.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-2] == 1:
        return mrt_precoder(h, power)
    items = h.reshape(-1, *h.shape[-2:])
    w = [wmmse_solve(hi, weights_alpha, power, noise).w for hi in items]
    return np.reshape(w, h.shape)


# ---------------------------------------------------------------------------
# stochastic surrogate ascent over the reflection vector
# ---------------------------------------------------------------------------

@dataclass
class SscaParams:
    """Sample counts, proximal weight and diminishing step-size schedules.

    The power-law schedules rho_t = t^-rho_exponent (surrogate forgetting) and
    gamma_t = t^-gamma_exponent (iterate step) must satisfy
    0.5 < rho_exponent < gamma_exponent <= 1 so that the running averages and
    the iterates both converge.
    """

    samples_per_iter: int = 10
    tau: float = 0.01
    rho_exponent: float = 0.8
    gamma_exponent: float = 1.0
    max_iters: int = 2000
    tol: float = 1e-4
    patience: int = 20             # consecutive small steps required to stop

    def __post_init__(self):
        if self.samples_per_iter < 1:
            raise ValueError("need at least one sample per iteration")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.5 < self.rho_exponent < self.gamma_exponent <= 1.0:
            raise ValueError(
                "step schedules need 0.5 < rho_exponent < gamma_exponent <= 1"
            )


@dataclass
class SurrogateState:
    """Running averages that define the concave surrogate at iteration t."""

    r_hat: np.ndarray              # (K,) weighted average-rate estimates
    jac_avg: np.ndarray            # (N, K) running Jacobian average
    grad: np.ndarray               # (N,) = jac_avg @ alpha
    v_prev: np.ndarray             # (N,)
    t: int = 0

    @classmethod
    def initial(cls, n: int, k: int, v0: np.ndarray) -> "SurrogateState":
        return cls(r_hat=np.zeros(k), jac_avg=np.zeros((n, k), dtype=complex),
                   grad=np.zeros(n, dtype=complex), v_prev=np.asarray(v0, dtype=complex).copy())


def ssca_update_surrogate(
    state: SurrogateState,
    sample_rates: np.ndarray,        # (T_H, K) unweighted per-sample rates
    sample_jacobians: np.ndarray,    # (T_H, N, K)
    weights_alpha: np.ndarray,
    rho_exponent: float,
) -> SurrogateState:
    """Convex-combination update of the rate and Jacobian running averages.

    Advances t and applies rho_t = t^-rho_exponent; at t = 1 the averages are
    replaced by the fresh sample means (rho_1 = 1).
    """
    state.t += 1
    rho_t = float(state.t) ** (-rho_exponent)
    weights_alpha = np.asarray(weights_alpha, dtype=float)
    rate_mean = (weights_alpha[None, :] * np.asarray(sample_rates)).mean(axis=0)
    jac_mean = np.asarray(sample_jacobians).mean(axis=0)
    state.r_hat = (1.0 - rho_t) * state.r_hat + rho_t * rate_mean
    state.jac_avg = (1.0 - rho_t) * state.jac_avg + rho_t * jac_mean
    state.grad = state.jac_avg @ weights_alpha
    return state


def solve_surrogate(state: SurrogateState, tau: float, unit_modulus: bool = False) -> np.ndarray:
    """Per-element closed-form maximizer of the proximal-linear surrogate.

    Unconstrained optimum is v_prev + grad/tau; entries outside the unit disk
    are pulled back to the boundary by the optimal dual variable
    lambda = |tau*v_prev + grad| - tau. With `unit_modulus` the maximizer is
    constrained to the unit circle directly (phase of tau*v_prev + grad).
    """
    target = state.v_prev + state.grad / tau
    if unit_modulus:
        return _on_grid(target, CONTINUOUS)
    mags = np.abs(target)
    return np.where(mags <= 1.0, target, target / np.maximum(mags, 1e-300))


def ssca_step_v(state: SurrogateState, v_bar: np.ndarray, t: int, gamma_exponent: float) -> np.ndarray:
    """Diminishing-step convex combination v_t = (1-gamma_t) v_{t-1} + gamma_t v_bar."""
    gamma_t = float(t) ** (-gamma_exponent)
    v_new = (1.0 - gamma_t) * state.v_prev + gamma_t * np.asarray(v_bar)
    state.v_prev = v_new
    return v_new


def _on_grid(v: np.ndarray, levels: int) -> np.ndarray:
    """Unit-modulus vector with each phase of v snapped to the grid; a zero
    entry reads as phase 0. Continuous resolution only normalizes amplitudes."""
    return quantize_phases(np.angle(np.where(v == 0, 1.0, v)), levels)


def project_discrete(v, levels: int) -> PhaseConfig:
    """Recover unit modulus, then snap each phase to the nearest grid point."""
    return PhaseConfig(_on_grid(phase_vector(v), levels), levels=levels)


@dataclass
class SscaResult:
    config: PhaseConfig            # projected (discrete/unit) solution
    v_continuous: np.ndarray       # final relaxed iterate
    trace: list[tuple[int, float, float, float, float]]
    # trace rows: (t, rho_t, gamma_t, sum_r_hat, v_change_inf_norm)
    iterations: int
    converged: bool
    stabilized_at: int | None = None   # first t meeting the trace-stability rule


def ssca_run(
    scsi: StatisticalCsi,
    power: float,
    noise: np.ndarray,
    weights_alpha: np.ndarray,
    params: SscaParams,
    levels: int,
    rng: np.random.Generator,
    v0: np.ndarray | None = None,
    amplitude: str = "relaxed",
    stop_when_stable: bool = False,
) -> SscaResult:
    """Sample-driven ascent of the average weighted sum-rate over the phases.

    Each iteration draws fresh channel samples, solves the per-sample precoding
    problem at the current phases, refreshes the surrogate from the sampled
    rates and Jacobians, and takes a diminishing step toward the surrogate
    maximizer. Stops once ||v_t - v_{t-1}||_inf stays below `params.tol` for
    `params.patience` consecutive iterations (or, with `stop_when_stable`, as
    soon as the weighted-rate trace meets the trailing-window stability rule);
    the final iterate is projected onto the requested phase grid.
    """
    if amplitude not in ("relaxed", "unit"):
        raise ValueError("amplitude must be 'relaxed' or 'unit'")
    n, k = scsi.num_elements, scsi.num_users
    v = np.ones(n, dtype=complex) if v0 is None else np.asarray(v0, dtype=complex).copy()
    state = SurrogateState.initial(n, k, v)
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k,))
    weights_alpha = np.broadcast_to(np.asarray(weights_alpha, dtype=float), (k,))

    trace: list[tuple[int, float, float, float, float]] = []
    small_steps = 0
    converged = False
    stabilized_at: int | None = None
    w_warm: np.ndarray | None = None
    t = 0
    for t in range(1, params.max_iters + 1):
        rates = np.empty((params.samples_per_iter, k))
        jacs = np.empty((params.samples_per_iter, n, k), dtype=complex)
        samples = InstantaneousChannels(*sample_batch(scsi, params.samples_per_iter, rng))
        h_eff = effective_channels(state.v_prev, samples)
        for ell in range(params.samples_per_iter):
            wstate = wmmse_solve(h_eff[ell], weights_alpha, power, noise, w0=w_warm)
            w_warm = wstate.w
            rates[ell], partials = instantaneous_rates(state.v_prev, wstate.w,
                                                       samples.slot(ell), noise)
            jacs[ell] = rate_jacobian(partials)

        ssca_update_surrogate(state, rates, jacs, weights_alpha, params.rho_exponent)
        v_bar = solve_surrogate(state, params.tau, unit_modulus=(amplitude == "unit"))
        v_old = state.v_prev.copy()
        v_new = ssca_step_v(state, v_bar, t, params.gamma_exponent)
        if amplitude == "unit":
            v_new = _on_grid(v_new, CONTINUOUS)
            state.v_prev = v_new
        change = float(np.max(np.abs(v_new - v_old)))
        rho_t = float(t) ** (-params.rho_exponent)
        gamma_t = float(t) ** (-params.gamma_exponent)
        trace.append((t, rho_t, gamma_t, float(state.r_hat.sum()), change))

        if stabilized_at is None and t >= 50:
            window = np.array([row[3] for row in trace[-50:]])
            mean = window.mean()
            if mean != 0 and window.std() < 0.02 * abs(mean):
                stabilized_at = t
                if stop_when_stable:
                    break

        small_steps = small_steps + 1 if change < params.tol else 0
        if small_steps >= params.patience:
            converged = True
            break

    config = project_discrete(state.v_prev, levels)
    return SscaResult(config=config, v_continuous=state.v_prev.copy(),
                      trace=trace, iterations=t, converged=converged,
                      stabilized_at=stabilized_at)
