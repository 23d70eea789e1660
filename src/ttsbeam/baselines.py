"""Reference transmission schemes: random phases, no reflecting surface,
first-slot-only phase design, single-timescale freezing, and per-slot
instantaneous-CSI optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    CONTINUOUS,
    InstantaneousChannels,
    PhaseConfig,
    StatisticalCsi,
    effective_channels,
    grid_angles,
)
from .multi_user import SscaParams, precoders, slot_rates, ssca_run, wmmse_solve
from .single_user import (
    PddParams,
    QuadraticForm,
    bcd_solve,
    build_quadratic_form,
    pdd_solve,
)

# per-slot instantaneous designs re-solve a full problem 200+ times per trial;
# the faster penalty schedule is inside the range the solver tolerates without
# measurable quality loss and keeps sweep runtimes practical
ICSI_PDD = PddParams(c=0.8, max_inner=30)


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
    return slot_rates(ch.h_d, precoders(ch.h_d, weights_alpha, power, noise), noise)[0]


def slot_quadratic_forms(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, b) of ||h_eff(v)||^2 = v^H Phi v + 2 Re{v^H b} + ||h_d||^2 per slot.

    Phi = diag(h_r^H) G G^H diag(h_r), b = diag(h_r^H) G h_d for one user's
    links, stacked over leading axes: g (..., N, M), h_r (..., N), h_d (..., M).
    """
    d = h_r.conj()
    gg = g @ np.swapaxes(g.conj(), -1, -2)
    phi = d[..., :, None] * gg * h_r[..., None, :]
    b = d * (g @ h_d[..., None])[..., 0]
    return phi, b


def instantaneous_quadratic_form(ch: InstantaneousChannels, k: int = 0) -> QuadraticForm:
    """Single-slot analogue of the average-power form: ||h_eff(v)||^2 exactly."""
    phi, b = slot_quadratic_forms(ch.g, ch.h_r[k], ch.h_d[k])
    const = float(np.real(np.vdot(ch.h_d[k], ch.h_d[k])))
    return QuadraticForm(phi=phi, b=b, const_term=const)


def naive_icsi(
    first_slot: InstantaneousChannels,
    levels: int,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
) -> PhaseConfig:
    """Phases designed from the first slot's realization only, then frozen."""
    if first_slot.num_users == 1:
        params = replace(ICSI_PDD, levels=levels)
        return pdd_solve(instantaneous_quadratic_form(first_slot), params).config
    return icsi_per_slot(first_slot, levels, weights_alpha, power, noise).config


def single_timescale(
    scsi: StatisticalCsi,
    levels: int,
    power: float,
    noise: np.ndarray,
    weights_alpha: np.ndarray | None = None,
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
        config = pdd_solve(build_quadratic_form(scsi), PddParams(levels=levels)).config
    else:
        config = ssca_run(scsi, power, noise, weights_alpha,
                          ssca_params or SscaParams(), levels=levels, rng=rng).config
    h_mean = scsi.mean_effective_channels(config.v)
    return config, precoders(h_mean, weights_alpha, power, noise)


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
) -> IcsiDesign:
    """Joint per-slot design from this slot's full realization.

    Multiuser: alternate precoder optimization at fixed phases with exact
    coordinate minimization of the weighted-MSE quadratic in v. Single user:
    maximize the effective channel power directly, then transmit MRT.
    """
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (ch.num_users,))
    if ch.num_users == 1:
        params = replace(ICSI_PDD, levels=levels)
        config = pdd_solve(instantaneous_quadratic_form(ch), params).config
        h = effective_channels(config.v, ch)
        w = precoders(h, weights_alpha, power, noise)
        rate = float(np.asarray(weights_alpha) @ slot_rates(h, w, noise)[0])
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
