"""Reference transmission schemes: random phases, no reflecting surface,
first-slot-only phase design, single-timescale freezing, and per-slot
instantaneous-CSI optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CONTINUOUS,
    InstantaneousChannels,
    PhaseConfig,
    StatisticalCsi,
    effective_channels,
    grid_angles,
)
from .multi_user import SscaParams, instantaneous_rates, ssca_run, wmmse_solve
from .single_user import (
    PddParams,
    QuadraticForm,
    bcd_solve,
    build_quadratic_form,
    mrt_rate,
    pdd_solve,
)

def random_phase(levels: int, n: int, rng: np.random.Generator) -> PhaseConfig:
    """Unit-amplitude reflection vector with phases drawn uniformly.

    Discrete resolution draws uniformly over the grid; continuous resolution
    draws angles uniformly on [0, 2*pi).
    """
    if levels == CONTINUOUS:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    else:
        angles = grid_angles(levels)[rng.integers(0, levels, size=n)]
    return PhaseConfig(np.exp(1j * angles), levels=levels)


def no_irs_rate(
    ch: InstantaneousChannels, weights_alpha: np.ndarray, power: float, noise: np.ndarray
) -> np.ndarray:
    """Per-user rates with the surface absent: direct channels only."""
    if ch.num_users == 1:
        return np.array([mrt_rate(ch.h_d[0], power, float(np.atleast_1d(noise)[0]))])
    state = wmmse_solve(ch.h_d, weights_alpha, power, noise)
    rates, _ = instantaneous_rates(np.zeros(ch.h_r.shape[1]), state.w, ch, noise)
    return rates


def instantaneous_quadratic_form(ch: InstantaneousChannels, k: int = 0) -> QuadraticForm:
    """Single-slot analogue of the average-power form: ||h_eff(v)||^2 exactly.

    Phi = diag(h_r^H) G G^H diag(h_r), b = diag(h_r^H) G h_d, const = ||h_d||^2.
    """
    d = ch.h_r[k].conj()
    gg = ch.g @ ch.g.conj().T
    phi = d[:, None] * gg * ch.h_r[k][None, :]
    b = d * (ch.g @ ch.h_d[k])
    const = float(np.real(np.vdot(ch.h_d[k], ch.h_d[k])))
    return QuadraticForm(phi=phi, b=b, const_term=const)


def naive_icsi(
    first_slot: InstantaneousChannels,
    levels: int,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
    pdd_params: PddParams | None = None,
) -> PhaseConfig:
    """Phases designed from the first slot's realization only, then frozen."""
    if first_slot.num_users == 1:
        params = pdd_params or PddParams(levels=levels)
        return pdd_solve(instantaneous_quadratic_form(first_slot), params).config
    return icsi_per_slot(first_slot, levels, weights_alpha, power, noise,
                         pdd_params=pdd_params).config


def single_timescale(
    scsi: StatisticalCsi,
    levels: int,
    power: float,
    noise: np.ndarray,
    weights_alpha: np.ndarray | None = None,
    pdd_params: PddParams | None = None,
    ssca_params: SscaParams | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[PhaseConfig, np.ndarray]:
    """Freeze both the phases and the precoders from statistical CSI alone.

    Phases come from the long-term optimizer; precoders are designed on the
    mean effective channels and never adapted afterwards.
    """
    k = scsi.num_users
    if weights_alpha is None:
        weights_alpha = np.ones(k)
    if k == 1:
        config = pdd_solve(build_quadratic_form(scsi), pdd_params or PddParams(levels=levels)).config
    else:
        config = ssca_run(scsi, power, noise, weights_alpha,
                          ssca_params or SscaParams(), levels=levels, rng=rng).config
    h_mean = scsi.mean_effective_channels(config.v)
    if k == 1:
        norm = np.linalg.norm(h_mean[0])
        if norm == 0:
            w = np.zeros_like(h_mean)
        else:
            w = np.sqrt(power) * h_mean / norm
    else:
        w = wmmse_solve(h_mean, weights_alpha, power, noise).w
    return config, w


def _mse_quadratic_form(
    v: np.ndarray, state, ch: InstantaneousChannels, noise: np.ndarray
) -> QuadraticForm:
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


@dataclass
class IcsiDesign:
    """Per-slot joint design: phases, precoders, and the AO objective path."""

    config: PhaseConfig
    w: np.ndarray
    round_objectives: list[float] = field(default_factory=list)


def icsi_per_slot(
    ch: InstantaneousChannels,
    levels: int,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
    max_rounds: int = 30,
    rel_tol: float = 1e-4,
    pdd_params: PddParams | None = None,
) -> IcsiDesign:
    """Joint per-slot design from this slot's full realization.

    Multiuser: alternate precoder optimization at fixed phases with exact
    coordinate minimization of the weighted-MSE quadratic in v. Single user:
    maximize the effective channel power directly, then transmit MRT.
    """
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (ch.num_users,))
    if ch.num_users == 1:
        params = pdd_params or PddParams(levels=levels)
        config = pdd_solve(instantaneous_quadratic_form(ch), params).config
        h = effective_channels(config.v, ch)
        norm = np.linalg.norm(h[0])
        w = np.zeros_like(h) if norm == 0 else np.sqrt(power) * h / norm
        rate = float(np.log2(1.0 + power * norm ** 2 / noise[0]))
        return IcsiDesign(config=config, w=w, round_objectives=[rate])

    n = ch.h_r.shape[1]
    v = np.ones(n, dtype=complex)  # phase 0 lies on every grid
    state = None
    prev_obj = None
    objectives: list[float] = []
    for _ in range(max_rounds):
        h_eff = effective_channels(v, ch)
        state = wmmse_solve(h_eff, weights_alpha, power, noise,
                            w0=None if state is None else state.w)
        objectives.append(state.objective)
        if prev_obj is not None and state.objective - prev_obj <= rel_tol * max(abs(prev_obj), 1e-12):
            break
        prev_obj = state.objective
        qf = _mse_quadratic_form(v, state, ch, noise)
        v = bcd_solve(qf, levels, v0=v).config.v
    h_eff = effective_channels(v, ch)
    state = wmmse_solve(h_eff, weights_alpha, power, noise, w0=state.w)
    return IcsiDesign(config=PhaseConfig(v, levels=levels), w=state.w,
                      round_objectives=objectives)
