"""Single-user pipeline: average-power quadratic form, PDD / BCD / brute-force
phase solvers and MRT precoding.

The long-term objective is the expected squared norm of the effective channel,
which for K = 1 reduces exactly to  v^H Phi v + 2 Re{v^H b} + const  in the
reflection vector v. All solvers maximize the v-dependent part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CONTINUOUS,
    PhaseConfig,
    StatisticalCsi,
    grid_index,
    grid_points,
    phase_vector,
    quantize_phases,
)


@dataclass
class QuadraticForm:
    """Hermitian-PSD quadratic description of E{ ||h_eff(v)||^2 }."""

    phi: np.ndarray                 # (N, N) complex Hermitian PSD
    b: np.ndarray                   # (N,) complex
    const_term: float               # v-independent part, >= 0

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex).reshape(-1)
        if not np.allclose(self.phi, self.phi.conj().T, atol=1e-10):
            raise ValueError("quadratic form matrix must be Hermitian")
        if self.const_term < 0:
            raise ValueError("constant term must be non-negative")

    @property
    def size(self) -> int:
        return self.b.shape[0]

    def quadratic(self, v) -> float:
        """v^H Phi v + 2 Re{v^H b} (the part the solvers maximize)."""
        vv = phase_vector(v)
        return float(np.real(vv.conj() @ self.phi @ vv) + 2.0 * np.real(vv.conj() @ self.b))

    def expected_gain(self, v) -> float:
        """E{ ||h_eff(v)||^2 } = quadratic(v) + const_term."""
        return self.quadratic(v) + self.const_term


def build_quadratic_form(scsi: StatisticalCsi) -> QuadraticForm:
    """Assemble the K = 1 average-power quadratic form from statistical CSI."""
    if scsi.num_users != 1:
        raise ValueError("quadratic form is defined for single-user CSI only")
    zr = scsi.zbar_r[0]
    zd = scsi.zbar_d[0]
    fbar = scsi.fbar
    s_ai2 = scsi.s_ai ** 2
    s_iu2 = float(scsi.s_iu[0] ** 2)
    s_au2 = float(scsi.s_au[0] ** 2)
    lam_sum = float(np.linalg.eigvalsh(scsi.phi_d).sum())
    phi_ru = scsi.phi_rk[0]

    ff = fbar @ fbar.conj().T
    dz = zr.conj()[:, None]          # diag(zbar_r^H) as a column scaling
    phi = (
        dz * ff * zr[None, :]
        + s_ai2 * lam_sum * (dz * scsi.phi_r * zr[None, :])
        + s_iu2 * (phi_ru * ff)
        + lam_sum * s_ai2 * s_iu2 * (phi_ru * scsi.phi_r)
    )
    b = zr.conj() * (fbar @ zd)
    const = float(np.real(zd.conj() @ zd)) + s_au2 * float(np.trace(scsi.phi_d))
    return QuadraticForm(phi=phi, b=b, const_term=const)


def rate_upper_bound(qf: QuadraticForm, v, power: float, noise: float) -> float:
    """log2(1 + P * E{||h_eff||^2} / sigma^2), a Jensen bound on the average rate."""
    gain = qf.expected_gain(v)
    if gain < -1e-9:
        raise ValueError(f"expected channel gain is negative ({gain:.3e}); form not PSD")
    return float(np.log2(1.0 + power * max(gain, 0.0) / noise))


def mrt_precoder(h_eff: np.ndarray, power: float) -> np.ndarray:
    """Maximum-ratio transmission sqrt(P) * h / ||h|| along the last axis."""
    h_eff = np.asarray(h_eff, dtype=complex)
    norm = np.linalg.norm(h_eff, axis=-1, keepdims=True)
    if not norm.all():
        warnings.warn("zero effective channel: returning zero precoder")
    return np.sqrt(power) * h_eff / np.where(norm == 0.0, np.inf, norm)


def mrt_rate(h_eff: np.ndarray, power: float, noise: float) -> float:
    """Instantaneous rate achieved by MRT on the given channel."""
    gain = float(np.real(np.vdot(h_eff, h_eff)))
    return float(np.log2(1.0 + power * gain / noise))


# ---------------------------------------------------------------------------
# penalty dual decomposition
# ---------------------------------------------------------------------------

PDD_EPS_IN = 1e-4       # relative AL decrease that ends an inner loop
PDD_EPS_OUT = 1e-6      # max |v - u| that ends the outer loop
PDD_MAX_OUTER = 500


@dataclass
class PddParams:
    """Phase grid and penalty schedule of the penalty solver (rho0 is `default_rho0`)."""

    levels: int = CONTINUOUS
    c: float = 0.95                # penalty shrink factor per outer iteration
    max_inner: int = 200

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError("penalty factor c must lie in (0, 1)")


@dataclass
class PddResult:
    config: PhaseConfig
    objective: float
    converged: bool
    violation: float
    outer_iterations: int
    trace: list[tuple[int, int, float, float, float]] = field(default_factory=list)
    # trace rows: (outer_iter, inner_iter, al_value, objective_at_u, violation_inf_norm)


def default_rho0(phi: np.ndarray) -> np.ndarray:
    """1/(2*lambda_max(Phi)) scaled up 10x, or 1 without a positive eigenvalue; the
    ball constraint keeps any rho0 valid. Batched over leading axes of phi. The
    Gram matrix A^H A of a factor Phi = A A^H has the same lambda_max."""
    lam_max = np.linalg.eigvalsh(phi)[..., -1]
    return np.where(lam_max > 0, 10.0 / (2.0 * np.maximum(lam_max, 1e-300)), 1.0)


def pdd_solve(
    qf: QuadraticForm,
    params: PddParams,
    record_trace: bool = False,
) -> PddResult:
    """Double-loop penalty solver for the grid-constrained quadratic maximization.

    Inner loop: block updates of v (ball-constrained, linearized) and u (grid)
    until the relative decrease of the augmented Lagrangian falls below
    PDD_EPS_IN. Outer loop: dual ascent lam += (v - u)/rho and penalty shrink
    rho *= c until the consensus violation ||v - u||_inf falls below
    PDD_EPS_OUT. The relative decrease test makes the iterate sequence
    invariant to positive rescaling of (Phi, b).
    """
    n = qf.size
    phi, b = qf.phi, qf.b
    v = np.ones(n, dtype=complex)
    u = quantize_phases(np.angle(v), params.levels)
    lam = np.zeros(n, dtype=complex)
    rho = float(default_rho0(phi))

    best_obj = qf.quadratic(u)
    best_u = u.copy()
    trace: list[tuple[int, int, float, float, float]] = []
    converged = False
    violation = float(np.max(np.abs(v - u)))
    outer = 0
    for outer in range(1, PDD_MAX_OUTER + 1):
        # rho and lam are fixed through the inner loop
        rho_lam, two_rho = rho * lam, 2.0 * rho
        phi_v = phi @ v
        resid = v - u + rho_lam
        al_prev = (-(np.vdot(v, phi_v).real + 2.0 * np.vdot(v, b).real)
                   + np.vdot(resid, resid).real / two_rho)
        for inner in range(1, params.max_inner + 1):
            # v: minimizer of the linearized augmented Lagrangian over ||v||^2 <= N;
            # u: per-element nearest grid point to v + rho*lam
            c = u - rho_lam + two_rho * (phi_v + b)
            nrm2 = np.vdot(c, c).real
            v = c if nrm2 <= n else c / np.sqrt(nrm2 / n)
            x = v + rho_lam
            u = quantize_phases(np.arctan2(x.imag, x.real), params.levels)
            phi_v = phi @ v
            resid = v - u + rho_lam
            al_new = (-(np.vdot(v, phi_v).real + 2.0 * np.vdot(v, b).real)
                      + np.vdot(resid, resid).real / two_rho)
            if record_trace:
                trace.append((outer, inner, float(al_new), qf.quadratic(u),
                              float(np.max(np.abs(v - u)))))
            if abs(al_prev - al_new) <= PDD_EPS_IN * max(abs(al_prev), 1e-300):
                break
            al_prev = al_new
        obj_u = qf.quadratic(u)
        if obj_u > best_obj:
            best_obj = obj_u
            best_u = u.copy()
        lam = lam + (v - u) / rho
        violation = float(np.max(np.abs(v - u)))
        if violation < PDD_EPS_OUT:
            converged = True
            break
        rho *= params.c

    # every iterate u lies on the grid, so the best one seen is always a valid
    # answer and never worse than the final consensus point
    return PddResult(
        config=PhaseConfig(best_u, levels=params.levels),
        objective=best_obj,
        converged=converged,
        violation=violation,
        outer_iterations=outer,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# coordinate descent and exhaustive search
# ---------------------------------------------------------------------------

BCD_REL_TOL = 1e-8
BCD_MAX_SWEEPS = 1000


@dataclass
class BcdResult:
    config: PhaseConfig
    objective: float
    sweep_objectives: list[float]


def bcd_solve(
    qf: QuadraticForm,
    levels: int,
    v0: np.ndarray | None = None,
) -> BcdResult:
    """One-at-a-time exact coordinate maximization over the phase grid.

    Each coordinate update maximizes 2 Re{v_n^* q_n} with
    q_n = sum_{j != n} Phi(n, j) v_j + b_n, so the objective never decreases.
    Sweeps stop once one gains at most BCD_REL_TOL relative.
    """
    n = qf.size
    v = np.ones(n, dtype=complex) if v0 is None else phase_vector(v0).copy()
    if levels != CONTINUOUS:
        on_grid = quantize_phases(np.angle(v), levels)
        if np.max(np.abs(on_grid - v)) > 1e-9:
            raise ValueError("v0 must lie on the phase grid")
        v = on_grid
    grid = None if levels == CONTINUOUS else grid_points(levels)
    obj = qf.quadratic(v)
    history = [obj]
    for _ in range(BCD_MAX_SWEEPS):
        for i in range(n):
            q = qf.phi[i] @ v - qf.phi[i, i] * v[i] + qf.b[i]
            if q == 0:
                continue
            theta = float(np.angle(q))
            v[i] = np.exp(1j * theta) if grid is None else grid[grid_index(theta, levels)]
        new_obj = qf.quadratic(v)
        history.append(new_obj)
        if new_obj - obj <= BCD_REL_TOL * max(abs(obj), 1e-300):
            obj = new_obj
            break
        obj = new_obj
    return BcdResult(config=PhaseConfig(v, levels=levels), objective=obj, sweep_objectives=history)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phi x = A (A^H x) per row, for the factors a (S, N, M) of Phi = A A^H."""
    ahx = (x.conj()[..., None, :] @ a).conj()          # (S, 1, M): (A^H x)^T
    return (a @ ahx[..., 0, :, None])[..., 0]


def _batch_quad(x: np.ndarray, phi_x: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Per-row x^H Phi x + 2 Re{x^H b}, given phi_x = Phi x."""
    return (np.einsum("sn,sn->s", x.conj(), phi_x).real
            + 2.0 * np.einsum("sn,sn->s", x.conj(), bs).real)


def pdd_solve_batch(
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


MAX_BRUTE_FORCE = 2 ** 20
BRUTE_FORCE_BATCH = 16384      # candidates scored per vectorized step


def brute_force_solve(qf: QuadraticForm, levels: int) -> PddResult:
    """Exhaustive search over all levels^N grid vectors (global optimum oracle)."""
    if levels < 1:
        raise ValueError("brute force requires a finite phase grid")
    n = qf.size
    total = levels ** n
    if total > MAX_BRUTE_FORCE:
        raise ValueError(f"search space {levels}^{n} exceeds {MAX_BRUTE_FORCE}")
    phases = np.exp(2j * np.pi * np.arange(levels) / levels)
    weights = levels ** np.arange(n - 1, -1, -1)  # first element most significant
    best_val = -np.inf
    best_idx = 0
    for start in range(0, total, BRUTE_FORCE_BATCH):
        idx = np.arange(start, min(start + BRUTE_FORCE_BATCH, total))
        digits = (idx[:, None] // weights[None, :]) % levels
        cand = phases[digits]
        vals = np.einsum("bn,nm,bm->b", cand.conj(), qf.phi, cand).real
        vals += 2.0 * (cand.conj() @ qf.b).real
        loc = int(np.argmax(vals))
        if vals[loc] > best_val:
            best_val = float(vals[loc])
            best_idx = int(idx[loc])
    digits = (best_idx // weights) % levels
    v = phases[digits]
    return PddResult(
        config=PhaseConfig(v, levels=levels),
        objective=best_val,
        converged=True,
        violation=0.0,
        outer_iterations=0,
    )
