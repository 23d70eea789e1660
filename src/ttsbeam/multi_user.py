"""Multiuser pipeline: per-slot WMMSE precoding, rate gradients w.r.t. the
reflection vector, and the stochastic surrogate ascent that optimizes the
long-term phases from channel samples.
"""

from __future__ import annotations

import functools
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
SSCA_WMMSE_TOL = 1e-4       # the same, for SSCA's sampled solves (its averages smooth the rest)
WMMSE_MAX_ITERS = 200
WATER_LEVEL_TOL = 1e-10     # water-level search stops within this fraction of P


# ---------------------------------------------------------------------------
# instantaneous rates and their gradients
# ---------------------------------------------------------------------------

def slot_rates(h: np.ndarray, w: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rates log2(1 + SINR_k) for effective channels h and precoders w.

    h and w are (..., K, M) with the K precoders as rows; leading axes
    broadcast, so one (K, M) precoder set can serve a stack of slots. Returns
    the (..., K) rates and the cross gains c[..., k, j] = h_k^H w_j.
    """
    c = h.conj() @ np.swapaxes(w, -1, -2)
    return _rates_from_gains(c, noise)[0], c


@functools.lru_cache(maxsize=None)
def _off_diagonal(k: int) -> np.ndarray:
    return ~np.eye(k, dtype=bool)       # the (k, k) entries j != k, built once per k


def _rates_from_gains(c: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rates log2(1 + |c_kk|^2 / ipn_k), interference plus noise ipn_k (the sum
    of |c_kj|^2 over j != k, plus noise) and gamma_k = |c_kk|^2 + ipn_k from the
    cross gains c (..., K, K). ipn_k is summed directly, as gamma_k - |c_kk|^2
    cancels at high SINR; noise > 0 keeps it positive."""
    powers = np.abs(c) ** 2
    own = powers.diagonal(0, -2, -1)
    ipn = np.add.reduce(powers, axis=-1, where=_off_diagonal(c.shape[-1])) + noise
    return np.log2(1.0 + own / ipn), ipn, own + ipn


def instantaneous_rates(v, w: np.ndarray, ch: InstantaneousChannels,
                        noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`slot_rates` at the effective channels of reflection vector v.

    Leading axes of v, w and the channels broadcast. Returns the (..., K)
    rates and the (..., K, K) cross gains that `rate_jacobian` takes.
    """
    return slot_rates(effective_channels(v, ch), w, noise)


def rate_jacobian(ch: InstantaneousChannels, w: np.ndarray, c: np.ndarray,
                  noise: np.ndarray) -> np.ndarray:
    """Conjugate-gradient Jacobian of the rate vector, shape (..., N, K).

    c holds the cross gains c[..., k, j] = h_k^H w_j that `slot_rates` returns
    for these channels and precoders; leading axes broadcast. |c_kj|^2 has
    conjugate gradient g_kj c_kj^* with g_kj = diag(h_{r,k}^H) G w_j, so column
    k is (1/ln 2) * (a_k / gamma_k - a_{-k} / gamma_{-k}), where a_k sums those
    gradients over j, a_{-k} leaves out j = k, and gamma_k and the interference
    plus noise gamma_{-k} come from `_rates_from_gains`. The 1/ln 2 factor converts
    the natural-log gradient to bits. For a real perturbation of v_n the rate
    moves by 2 Re{J[n, k]} per unit step, for an imaginary perturbation by
    2 Im{J[n, k]}.
    """
    gw = ch.g @ np.swapaxes(w, -1, -2)                    # (..., N, K): G w_j
    hr = np.swapaxes(ch.h_r, -1, -2).conj()               # (..., N, K): h_{r,k}^*
    _, gamma_minus, gamma = _rates_from_gains(c, noise)
    a = hr * (gw @ np.swapaxes(c, -1, -2).conj())
    a_minus = a - hr * gw * c.diagonal(axis1=-2, axis2=-1).conj()[..., None, :]
    return LOG2E * (a / gamma[..., None, :] - a_minus / gamma_minus[..., None, :])


# ---------------------------------------------------------------------------
# weighted-MMSE precoding
# ---------------------------------------------------------------------------

@dataclass
class WmmseState:
    """Converged precoders plus the internals of the final iteration."""

    w: np.ndarray              # (K, M)
    u_rx: np.ndarray           # (K,) receive scalars
    weights: np.ndarray        # (K,) MSE weights alpha_k / e_k
    mu: float                  # power Lagrange multiplier
    objective: float           # weighted sum-rate, bits/s/Hz
    trace: list[float] = field(default_factory=list)
    iterations: int = 0


def _water_level(d: list[float], c: list[float], floor: float, power: float) -> float:
    """Smallest mu >= 0 with sum_i c_i / (d_i + mu)^2 within WATER_LEVEL_TOL * P of P.

    Runs on Python floats: it is called once per item per WMMSE iteration on M
    terms, plain floats cost far less than numpy calls, and a left-to-right
    sum equals np.add.reduce bit for bit below 8 terms. Terms with
    d_i + mu <= floor are dropped; since d >= 0, only mu <= floor can drop any.
    (A vectorized search over a stack would move bits: np.power(p, 1.5)
    differs from p ** 1.5 in the last bit for some p.)
    """
    tol = WATER_LEVEL_TOL * power
    pairs = list(zip(d, c))

    def total_power(mu: float) -> tuple[float, float]:
        p = slope = 0.0
        for di, ci in pairs:
            den = di + mu
            if den <= floor:
                continue
            term = ci / (den * den)
            p += term
            slope += term / den
        return p, -2.0 * slope

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
    return mu


def _solve_power_split(
    h_t: np.ndarray, h_conj: np.ndarray, coef: np.ndarray, scale: np.ndarray, power: float
) -> tuple[np.ndarray, list[float]]:
    """Precoders w_k = scale_k (A + mu I)^{-1} h_k with A = h^H diag(coef) h, per item.

    Takes h^T (S, M, K) and h^* (S, K, M), which the WMMSE loop computes once,
    with coef and scale (S, K); returns w (S, K, M) and the S water levels.
    The linear algebra runs on the whole stack (one batched eigh); each item's
    mu >= 0 meets its power budget with complementary slackness: mu = 0 when
    the unconstrained solution is feasible, otherwise a monotone root search
    drives sum ||w_k||^2 to P, within WATER_LEVEL_TOL * P. Eigenvalues at or
    below 1e-15 of the largest count as zero.
    """
    a_mat = (h_t * coef[:, None, :]) @ h_conj
    d, q_mat = np.linalg.eigh(a_mat)
    d = np.maximum(d, 0.0)
    t = q_mat.conj().swapaxes(1, 2) @ h_t             # t[s, :, k] = Q_s^H h_{s,k}
    c_i = np.add.reduce(np.abs(t) ** 2 * (np.abs(scale) ** 2)[:, None, :], axis=2)

    mus, inv = [], []
    for di, ci in zip(d.tolist(), c_i.tolist()):
        floor = max(di) * 1e-15                          # d >= 0
        mu = _water_level(di, ci, floor, power)
        mus.append(mu)
        inv.append([1.0 / (x + mu) if x + mu > floor else 0.0 for x in di])
    w = (q_mat @ (t * np.array(inv)[:, :, None])).swapaxes(1, 2) * scale[:, :, None]
    return w, mus


def _wmmse_start(h: np.ndarray, norms: np.ndarray, power: float, w0) -> np.ndarray:
    """A usable warm start scaled into the budget, else MRT directions with an
    equal power split (zero channels get nothing)."""
    if w0 is not None and np.isfinite(w0).all() and np.linalg.norm(w0) > 0:
        w = np.asarray(w0, dtype=complex).copy()
        excess = np.sum(np.abs(w) ** 2) / power
        if excess > 1.0:
            w /= np.sqrt(excess)
        return w
    w = np.zeros(h.shape, dtype=complex)
    active = norms > 0
    w[active] = h[active] / norms[active, None] * np.sqrt(power / max(active.sum(), 1))
    return w


def wmmse_solve_batch(
    h: np.ndarray,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
    w0: np.ndarray | None = None,
    tol: float = WMMSE_TOL,
) -> list[WmmseState]:
    """Weighted sum-rate maximization for each item of a stack h (S, K, M).

    Alternates (i) MMSE receive scalars, (ii) MSE weights alpha_k / e_k,
    (iii) regularized-inverse precoders whose water level mu meets the power
    budget (Newton steps on 1/sqrt(p(mu))), until the weighted sum-rate
    improves by less than `tol` relative. The items are independent
    problems sharing the weights, budget and noise: the linear algebra runs on
    the stack, and each item keeps its own start (w0[s] if usable, else MRT)
    and stopping rule and leaves the working set when it stops, so an item's
    result does not depend on the rest of the stack. Returns one state per item.

    Only `ssca_run` passes `tol` (SSCA_WMMSE_TOL); every reported rate comes
    from a solve at WMMSE_TOL.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    n_items, k_users, m = h.shape
    weights_alpha = np.broadcast_to(np.asarray(weights_alpha, dtype=float), (k_users,))
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))

    norms = np.linalg.norm(h, axis=-1)
    out: list[WmmseState | None] = [None] * n_items
    live, starts = [], []
    for s in range(n_items):
        if not norms[s].any():
            out[s] = WmmseState(w=np.zeros((k_users, m), dtype=complex),
                                u_rx=np.zeros(k_users, dtype=complex),
                                weights=weights_alpha.copy(), mu=0.0, objective=0.0,
                                trace=[0.0], iterations=0)
        else:
            live.append(s)
            starts.append(_wmmse_start(h[s], norms[s], power, None if w0 is None else w0[s]))
    if not live:
        return out

    hs = h if len(live) == n_items else h[live]
    h_t, h_conj = hs.swapaxes(1, 2), hs.conj()
    c = h_conj @ np.array(starts).swapaxes(1, 2)
    rates, ipn, gamma = _rates_from_gains(c, noise)
    objs = [float(weights_alpha @ r) for r in rates]
    traces = [[obj] for obj in objs]
    for its in range(1, WMMSE_MAX_ITERS + 1):
        u = c.diagonal(0, 1, 2) / gamma
        mse = ipn / gamma
        mw = weights_alpha / mse
        w, mus = _solve_power_split(h_t, h_conj, mw * np.abs(u) ** 2, mw * u.conj(), power)
        c = h_conj @ w.swapaxes(1, 2)
        rates, ipn, gamma = _rates_from_gains(c, noise)
        keep = []
        for j, r in enumerate(rates):
            obj, new_obj = objs[j], float(weights_alpha @ r)
            traces[j].append(new_obj)
            objs[j] = new_obj
            if new_obj - obj <= tol * max(abs(obj), 1e-12) or its == WMMSE_MAX_ITERS:
                out[live[j]] = WmmseState(w=w[j], u_rx=u[j], weights=mw[j], mu=mus[j],
                                          objective=new_obj, trace=traces[j], iterations=its)
            else:
                keep.append(j)
        if len(keep) < len(live):
            if not keep:
                break
            # stopped items leave the working set
            live = [live[j] for j in keep]
            objs = [objs[j] for j in keep]
            traces = [traces[j] for j in keep]
            hs, c, gamma, ipn = hs[keep], c[keep], gamma[keep], ipn[keep]
            h_t, h_conj = hs.swapaxes(1, 2), hs.conj()
    return out


def wmmse_solve(
    h: np.ndarray,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
    w0: np.ndarray | None = None,
) -> WmmseState:
    """Weighted sum-rate maximization over the effective channels h (K, M): the
    one-item case of `wmmse_solve_batch`, warm-started from w0 (K, M) if usable."""
    return wmmse_solve_batch(np.asarray(h)[None], weights_alpha, power, noise,
                             w0=None if w0 is None else np.asarray(w0)[None])[0]


def precoders(h: np.ndarray, weights_alpha: np.ndarray, power: float, noise: np.ndarray) -> np.ndarray:
    """Fast-timescale precoders for effective channels h (..., K, M), per item.

    One user gets MRT; more users get WMMSE, every item of the stack in one
    `wmmse_solve_batch` call.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-2] == 1:
        return mrt_precoder(h, power)
    states = wmmse_solve_batch(h.reshape(-1, *h.shape[-2:]), weights_alpha, power, noise)
    return np.reshape([st.w for st in states], h.shape)


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
        for key in ("samples_per_iter", "max_iters", "patience"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
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

    Each iteration draws fresh channel samples, solves their precoding
    problems at the current phases in one `wmmse_solve_batch` call to
    SSCA_WMMSE_TOL (sample i starts from sample i's precoders of the previous
    iteration), refreshes the surrogate from the sampled rates and Jacobians,
    and takes a diminishing step toward the surrogate maximizer. Stops once
    ||v_t - v_{t-1}||_inf stays below `params.tol` for `params.patience`
    consecutive iterations (or, with `stop_when_stable`, as soon as the
    weighted-rate trace meets the trailing-window stability rule); the final
    iterate is projected onto the requested phase grid.
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
    w: np.ndarray | None = None
    t = 0
    for t in range(1, params.max_iters + 1):
        samples = InstantaneousChannels(*sample_batch(scsi, params.samples_per_iter, rng))
        h_eff = effective_channels(state.v_prev, samples)
        # one stacked solve; sample i starts from sample i's precoders of the
        # previous iteration (MRT at t = 1)
        states = wmmse_solve_batch(h_eff, weights_alpha, power, noise, w0=w,
                                   tol=SSCA_WMMSE_TOL)
        w = np.stack([st.w for st in states])
        rates, c = slot_rates(h_eff, w, noise)
        jacs = rate_jacobian(samples, w, c, noise)

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
