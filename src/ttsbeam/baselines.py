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
)
from .multi_user import SscaParams, WmmseState, precoders, slot_rates, ssca_run, wmmse_solve_batch
from .multi_user import wmmse_solve  # noqa: F401  (perfbench's tracer test reads it here)
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

ICSI_MAX_ROUNDS = 30        # multiuser alternating rounds per slot
ICSI_REL_TOL = 1e-4         # relative WMMSE objective gain that ends them


def random_phase(levels: int, n: int, rng: np.random.Generator) -> PhaseConfig:
    """Unit-amplitude reflection vector with phases drawn uniformly.

    Discrete resolution draws uniformly over the grid; continuous resolution
    draws angles uniformly on [0, 2*pi).
    """
    if levels == CONTINUOUS:
        return PhaseConfig(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))
    return PhaseConfig.on_grid(rng.integers(0, levels, size=n), levels)


def no_irs_rate(
    ch: InstantaneousChannels, weights_alpha: np.ndarray, power: float, noise: np.ndarray
) -> np.ndarray:
    """Per-user rates with the surface absent: direct channels only."""
    return slot_rates(ch.h_d, precoders(ch.h_d, weights_alpha, power, noise), noise)[0]


def slot_quadratic_forms(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of ||h_eff(v)||^2 = v^H A A^H v + 2 Re{v^H b} + ||h_d||^2 per slot.

    A = diag(h_r^H) G is the N x M factor of Phi = A A^H, and b = diag(h_r^H) G h_d,
    for one user's links stacked over leading axes: g (..., N, M), h_r (..., N),
    h_d (..., M). The N x N form Phi is never built.
    """
    d = h_r.conj()
    return d[..., :, None] * g, d * (g @ h_d[..., None])[..., 0]


def instantaneous_quadratic_form(ch: InstantaneousChannels, k: int = 0) -> QuadraticForm:
    """Single-slot analogue of the average-power form: ||h_eff(v)||^2 exactly."""
    a, b = slot_quadratic_forms(ch.g, ch.h_r[k], ch.h_d[k])
    const = float(np.real(np.vdot(ch.h_d[k], ch.h_d[k])))
    return QuadraticForm(phi=a @ a.conj().T, b=b, const_term=const)


def naive_icsi(
    first_slot: InstantaneousChannels,
    levels: int,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
) -> PhaseConfig:
    """Phases designed from the first slot's realization only, then frozen: the
    one-slot case of `icsi_per_slot`."""
    return icsi_per_slot(first_slot, levels, weights_alpha, power, noise).config


def single_timescale(
    scsi: StatisticalCsi,
    levels: int,
    power: float,
    noise: np.ndarray,
    weights_alpha: np.ndarray,
    ssca_params: SscaParams,
    rng: np.random.Generator,
) -> tuple[PhaseConfig, np.ndarray]:
    """Freeze both the phases and the precoders from statistical CSI alone.

    Phases come from the long-term optimizer (PDD for one user, SSCA with
    `ssca_params` and `rng` for more); precoders are designed on the mean
    effective channels and never adapted afterwards.
    """
    if scsi.num_users == 1:
        config = pdd_solve(build_quadratic_form(scsi), PddParams(levels=levels)).config
    else:
        config = ssca_run(scsi, power, noise, weights_alpha, ssca_params,
                          levels=levels, rng=rng).config
    h_mean = scsi.mean_effective_channels(config.v)
    return config, precoders(h_mean, weights_alpha, power, noise)


def _mse_quadratic_form(state: WmmseState, ch: InstantaneousChannels) -> QuadraticForm:
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
    """Per-slot joint designs: phases v (..., N) on the `levels` grid, precoders
    w (..., K, M), and the alternating-optimization objectives of every slot,
    slot after slot."""

    v: np.ndarray
    w: np.ndarray
    levels: int
    round_objectives: list[float] = field(default_factory=list)

    @property
    def config(self) -> PhaseConfig:
        """The phases of a one-slot design."""
        if self.v.ndim != 1:
            raise ValueError("a slot stack has one phase vector per slot; read v")
        return PhaseConfig(self.v, levels=self.levels)


def icsi_per_slot(
    ch: InstantaneousChannels,
    levels: int,
    weights_alpha: np.ndarray,
    power: float,
    noise: np.ndarray,
) -> IcsiDesign:
    """Joint design of each slot from its full realization; ch is one slot or a
    stack with the slot axis first.

    Multiuser: alternate precoder optimization at fixed phases with exact
    coordinate minimization of the weighted-MSE quadratic in v. Each round is
    one batched WMMSE solve over the slots still alternating, then one BCD
    solve per slot; a slot stops on its own rule, so its design does not
    depend on the rest of the stack. Single user: maximize the effective
    channel power directly, then transmit MRT.
    """
    one_slot = ch.g.ndim == 2
    if one_slot:
        ch = InstantaneousChannels(g=ch.g[None], h_r=ch.h_r[None], h_d=ch.h_d[None])
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (ch.num_users,))
    n_slots, n = ch.h_r.shape[0], ch.h_r.shape[-1]
    if ch.num_users == 1:
        params = replace(ICSI_PDD, levels=levels)
        v = np.stack([pdd_solve(instantaneous_quadratic_form(ch.slot(s)), params).config.v
                      for s in range(n_slots)])
        h = effective_channels(v, ch)
        w = precoders(h, weights_alpha, power, noise)
        objectives = [float(np.asarray(weights_alpha) @ r) for r in slot_rates(h, w, noise)[0]]
    else:
        v = np.ones((n_slots, n), dtype=complex)  # phase 0 lies on every grid
        # zero precoders are no warm start: the first round starts WMMSE cold
        w = np.zeros((n_slots, ch.num_users, ch.g.shape[-1]), dtype=complex)
        slot_objectives: list[list[float]] = [[] for _ in range(n_slots)]
        active = list(range(n_slots))
        for _ in range(ICSI_MAX_ROUNDS):
            states = wmmse_solve_batch(effective_channels(v, ch)[active], weights_alpha,
                                       power, noise, w0=w[active])
            still = []
            for s, state in zip(active, states):
                w[s] = state.w
                objs = slot_objectives[s]
                objs.append(state.objective)
                if (len(objs) > 1
                        and objs[-1] - objs[-2] <= ICSI_REL_TOL * max(abs(objs[-2]), 1e-12)):
                    continue
                qf = _mse_quadratic_form(state, ch.slot(s))
                v[s] = bcd_solve(qf, levels, v0=v[s]).config.v
                still.append(s)
            active = still
            if not active:
                break
        states = wmmse_solve_batch(effective_channels(v, ch), weights_alpha, power, noise, w0=w)
        w = np.stack([state.w for state in states])
        objectives = [obj for objs in slot_objectives for obj in objs]
    if one_slot:
        v, w = v[0], w[0]
    return IcsiDesign(v=v, w=w, levels=levels, round_objectives=objectives)
