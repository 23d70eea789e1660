"""Reference transmission schemes: random phases, no reflecting surface, and
per-slot instantaneous-CSI optimization, whose one-slot design the
first-slot-only scheme freezes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import CONTINUOUS, InstantaneousChannels, PhaseConfig, effective_channels
from .multi_user import WmmseState, precoders, slot_rates, wmmse_solve_batch
from .multi_user import wmmse_solve  # noqa: F401  (perfbench's tracer test reads it here)
from .single_user import PddParams, QuadraticForm, bcd_solve, pdd_solve_batch

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
    round_objectives: list[float] = field(default_factory=list)


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
    depend on the rest of the stack. A slot that reaches the round cap gets
    one more WMMSE solve for its last phases. Single user: maximize every
    slot's effective channel power in one batched penalty solve on the slots'
    rank-M factors, then transmit MRT.
    """
    one_slot = ch.g.ndim == 2
    if one_slot:
        ch = InstantaneousChannels(g=ch.g[None], h_r=ch.h_r[None], h_d=ch.h_d[None])
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (ch.num_users,))
    if ch.num_users == 1:
        factors, bs = slot_quadratic_forms(ch.g, ch.h_r[:, 0], ch.h_d[:, 0])
        v, _, _ = pdd_solve_batch(factors, bs, replace(ICSI_PDD, levels=levels))
        h = effective_channels(v, ch)
        w = precoders(h, weights_alpha, power, noise)
        objectives = [float(np.asarray(weights_alpha) @ r) for r in slot_rates(h, w, noise)[0]]
    else:
        n_slots, n = ch.h_r.shape[0], ch.h_r.shape[-1]
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
        if active:
            # slots that used every round ended on a BCD step: their precoders
            # are re-solved for their last phases; the others already match
            states = wmmse_solve_batch(effective_channels(v, ch)[active], weights_alpha,
                                       power, noise, w0=w[active])
            w[active] = [state.w for state in states]
        objectives = [obj for objs in slot_objectives for obj in objs]
    if one_slot:
        v, w = v[0], w[0]
    return IcsiDesign(v=v, w=w, round_objectives=objectives)
