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
from .single_user import PddParams, bcd_solve_batch, pdd_solve_batch

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


def _mse_quadratic_forms(
    states: list[WmmseState], ch: InstantaneousChannels
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-MSE surrogates as quadratics in v, with receivers/weights fixed.

    For slot s, sum_k mw_k e_k = v^H Phi_s v + 2 Re{v^H b_s} + const, so
    minimizing it over the grid is the same maximization problem with
    (Phi_s, b_s) negated; returns the negated (S, N, N) and (S, N) forms of the
    stack ch, one slot per state, in place to keep one (S, N, N) temporary.
    """
    w = np.array([state.w for state in states])                     # (S, K, M)
    u = np.array([state.u_rx for state in states])                  # (S, K)
    mw = np.array([state.weights for state in states])              # (S, K)
    # mw_k |u_k|^2 with the scalar power of a one-slot form: an array's ** 2
    # squares, which differs from pow in the last bit for some |u_k|
    coef = mw * np.reshape([x ** 2 for x in np.abs(u).ravel().tolist()], u.shape)
    lin = mw * u.conj()
    gw = (ch.g @ w.swapaxes(1, 2)).swapaxes(1, 2)                   # (S, K, N), rows (G w_j)^T
    s, k_users, n = ch.h_r.shape
    phi = np.zeros((s, n, n), dtype=complex)
    b = np.zeros((s, n), dtype=complex)
    term = np.empty_like(phi)
    for k in range(k_users):
        g = ch.h_r[:, k, None].conj() * gw                          # (S, K, N), rows g_kj
        cd = w @ ch.h_d[:, k, :, None].conj()                       # (S, K, 1), h_d^H w_j
        np.matmul(g.swapaxes(1, 2), g.conj(), out=term)
        term *= coef[:, k, None, None]
        phi += term
        b += coef[:, k, None] * (g * cd.conj()).sum(axis=1)
        b -= lin[:, k, None] * g[:, k]
    return np.negative(phi, out=phi), np.negative(b, out=b)


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
    one batched WMMSE solve over the slots still alternating, then one batched
    BCD solve over those that did not stop; a slot stops on its own rule, so
    its design does not depend on the rest of the stack. A slot that reaches
    the round cap gets one more WMMSE solve for its last phases. Single user:
    maximize every slot's effective channel power in one batched penalty solve
    on the slots' rank-M factors, then transmit MRT.
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
            states = wmmse_solve_batch(effective_channels(v[active], ch.slot(active)),
                                       weights_alpha, power, noise, w0=w[active])
            still, still_states = [], []
            for s, state in zip(active, states):
                w[s] = state.w
                objs = slot_objectives[s]
                objs.append(state.objective)
                if (len(objs) > 1
                        and objs[-1] - objs[-2] <= ICSI_REL_TOL * max(abs(objs[-2]), 1e-12)):
                    continue
                still.append(s)
                still_states.append(state)
            active = still
            if not active:
                break
            # the forms live only through the call, so the next round's build
            # does not hold two (S, N, N) stacks
            v[active] = bcd_solve_batch(*_mse_quadratic_forms(still_states, ch.slot(active)),
                                        levels, v0=v[active])[0]
        if active:
            # slots that used every round ended on a BCD step: their precoders
            # are re-solved for their last phases; the others already match
            states = wmmse_solve_batch(effective_channels(v[active], ch.slot(active)),
                                       weights_alpha, power, noise, w0=w[active])
            w[active] = [state.w for state in states]
        objectives = [obj for objs in slot_objectives for obj in objs]
    if one_slot:
        v, w = v[0], w[0]
    return IcsiDesign(v=v, w=w, round_objectives=objectives)
