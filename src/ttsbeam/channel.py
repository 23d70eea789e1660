"""Correlated-Rician channel model: scenario geometry, statistical CSI and sampling.

Every link is modeled as `deterministic + correlated scattered part`. Large-scale
path loss and the Rician power split are absorbed directly into the stored
deterministic components and the per-entry scattered standard deviations, so all
downstream algebra works on the absorbed quantities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SYM_TOL = 1e-10          # max asymmetry accepted by psd_sqrt
PSD_EIG_TOL = -1e-6      # eigenvalues below this are treated as a hard error
PSD_CLAMP_TOL = -1e-10   # eigenvalues in [PSD_CLAMP_TOL, 0) are clamped to 0


# ---------------------------------------------------------------------------
# scenario description
# ---------------------------------------------------------------------------

@dataclass
class PathLossModel:
    """Distance power law: gain = c0 * (d / d0)^(-alpha), everything linear."""

    c0: float
    d0: float = 1.0
    alpha_au: float = 3.4
    alpha_ai: float = 2.2
    alpha_iu: float = 3.0

    def __post_init__(self):
        if self.c0 <= 0 or self.d0 <= 0:
            raise ValueError("c0 and d0 must be positive")


@dataclass
class RicianFactors:
    """Linear Rician factors per link type; 0 means Rayleigh fading."""

    beta_au: float
    beta_ai: float
    beta_iu: float

    def __post_init__(self):
        for name in ("beta_au", "beta_ai", "beta_iu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class CorrelationSpec:
    """Exponential-model coefficients: AP transmit, IRS receive, per-user IRS-user."""

    r_d: float
    r_r: float
    r_rk: tuple[float, ...]

    def __post_init__(self):
        self.r_rk = tuple(float(r) for r in np.atleast_1d(self.r_rk))
        for r in (self.r_d, self.r_r, *self.r_rk):
            if not 0.0 <= r <= 1.0:
                raise ValueError("correlation coefficients must lie in [0, 1]")


@dataclass
class Scenario:
    """Static description of one AP / IRS / users deployment.

    Powers are in watts, positions in meters; the IRS panel is factored as
    `irs_shape = (n_h, n_v)` with `n_h * n_v` elements (first factor indexes the
    horizontal correlation axis and varies slowest in the element ordering).
    """

    ap_position: np.ndarray
    ap_antennas: int
    irs_position: np.ndarray
    irs_shape: tuple[int, int]
    user_positions: np.ndarray
    transmit_power: float
    noise_powers: np.ndarray
    path_loss: PathLossModel
    rician: RicianFactors
    correlation: CorrelationSpec

    def __post_init__(self):
        self.ap_position = np.asarray(self.ap_position, dtype=float).reshape(3)
        self.irs_position = np.asarray(self.irs_position, dtype=float).reshape(3)
        self.user_positions = np.atleast_2d(np.asarray(self.user_positions, dtype=float))
        if self.user_positions.shape[1] != 3:
            raise ValueError("user positions must be 3-vectors")
        self.noise_powers = np.broadcast_to(
            np.asarray(self.noise_powers, dtype=float), (self.num_users,)
        ).copy()
        if self.ap_antennas < 1 or self.num_elements < 1 or self.num_users < 1:
            raise ValueError("antenna/element/user counts must be >= 1")
        if len(self.irs_shape) != 2 or min(self.irs_shape) < 1:
            raise ValueError("irs_shape must be two positive factors")
        if self.transmit_power <= 0:
            raise ValueError("transmit power must be positive")
        if np.any(self.noise_powers <= 0):
            raise ValueError("noise powers must be positive")
        if len(self.correlation.r_rk) != self.num_users:
            raise ValueError("need one IRS-user correlation coefficient per user")
        for pos in self.user_positions:
            if np.linalg.norm(pos - self.ap_position) <= 0 or np.linalg.norm(pos - self.irs_position) <= 0:
                raise ValueError("user positions must differ from AP/IRS positions")
        if np.linalg.norm(self.ap_position - self.irs_position) <= 0:
            raise ValueError("AP and IRS positions must differ")

    @property
    def num_users(self) -> int:
        return self.user_positions.shape[0]

    @property
    def num_elements(self) -> int:
        return int(self.irs_shape[0] * self.irs_shape[1])


# ---------------------------------------------------------------------------
# elementary building blocks
# ---------------------------------------------------------------------------

def path_loss(d_link: float, alpha: float, c0: float, d0: float = 1.0) -> float:
    """Linear power gain c0 * (d_link / d0)^(-alpha)."""
    if d_link <= 0:
        raise ValueError(f"link distance must be positive, got {d_link}")
    if d0 <= 0:
        raise ValueError(f"reference distance must be positive, got {d0}")
    return float(c0 * (d_link / d0) ** (-alpha))


def exp_correlation(n: int, r: float) -> np.ndarray:
    """Exponential correlation matrix with entry (i, j) = r^|i-j|."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"correlation coefficient must lie in [0, 1], got {r}")
    idx = np.arange(n)
    return r ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def kron_correlation(phi_h: np.ndarray, phi_v: np.ndarray) -> np.ndarray:
    """Kronecker product of horizontal and vertical correlation matrices."""
    for phi in (phi_h, phi_v):
        phi = np.asarray(phi)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError("correlation factors must be square")
        if np.iscomplexobj(phi):
            raise ValueError("correlation matrices must be real")
        if not np.allclose(phi, phi.T, atol=SYM_TOL):
            raise ValueError("correlation factors must be symmetric")
        if not np.allclose(np.diag(phi), 1.0, atol=1e-9):
            raise ValueError("correlation factors must have unit diagonal")
    return np.kron(np.asarray(phi_h, dtype=float), np.asarray(phi_v, dtype=float))


def psd_sqrt(phi: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Slightly negative eigenvalues (numerical) are clamped to zero; anything
    below -1e-6 is rejected as genuinely indefinite.
    """
    phi = np.asarray(phi)
    if np.iscomplexobj(phi):
        raise ValueError("expected a real symmetric matrix")
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(phi, phi.T, atol=SYM_TOL):
        raise ValueError("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(phi)
    if eigvals.min(initial=0.0) < PSD_EIG_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {eigvals.min():.3e})")
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


# ---------------------------------------------------------------------------
# statistical CSI
# ---------------------------------------------------------------------------

@dataclass
class StatisticalCsi:
    """Absorbed deterministic components plus correlation structure of all links.

    `zbar_r[k]`, `zbar_d[k]` and `fbar` already include the square-root path
    gains and the deterministic Rician fraction. `s_au[k]`, `s_ai`, `s_iu[k]`
    are the per-entry standard deviations of the scattered parts after the same
    absorption (user-indexed links carry one value per user).
    """

    zbar_r: np.ndarray          # (K, N) complex
    zbar_d: np.ndarray          # (K, M) complex
    fbar: np.ndarray            # (N, M) complex
    phi_r: np.ndarray           # (N, N) real
    phi_d: np.ndarray           # (M, M) real
    phi_rk: np.ndarray          # (K, N, N) real
    s_au: np.ndarray            # (K,)
    s_ai: float
    s_iu: np.ndarray            # (K,)
    # square roots of the correlation matrices, derived on construction
    phi_r_sqrt: np.ndarray = field(init=False, repr=False)
    phi_d_sqrt: np.ndarray = field(init=False, repr=False)
    phi_rk_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.phi_r_sqrt = psd_sqrt(self.phi_r)
        self.phi_d_sqrt = psd_sqrt(self.phi_d)
        self.phi_rk_sqrt = np.stack([psd_sqrt(p) for p in self.phi_rk])

    @property
    def num_users(self) -> int:
        return self.zbar_r.shape[0]

    @property
    def num_elements(self) -> int:
        return self.zbar_r.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.fbar.shape[1]

    def mean_effective_channels(self, v: np.ndarray) -> np.ndarray:
        """Deterministic part of each user's effective channel, shape (K, M)."""
        return effective_channels(v, InstantaneousChannels(g=self.fbar, h_r=self.zbar_r,
                                                           h_d=self.zbar_d))


@dataclass
class InstantaneousChannels:
    """One realization of all links for a time slot, or a stack of slots.

    A stack carries the slot axis first: g (S, N, M), h_r (S, K, N), h_d (S, K, M).
    """

    g: np.ndarray       # (N, M) AP->IRS
    h_r: np.ndarray     # (K, N) IRS->user
    h_d: np.ndarray     # (K, M) AP->user

    @property
    def num_users(self) -> int:
        return self.h_r.shape[-2]

    def slot(self, s: int) -> "InstantaneousChannels":
        """Slot s of a stack."""
        return InstantaneousChannels(g=self.g[s], h_r=self.h_r[s], h_d=self.h_d[s])


def _cscg(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _rician_split(gain: float, beta: float) -> tuple[float, float]:
    # returns (deterministic amplitude scale, scattered per-entry std)
    if np.isinf(beta):
        return np.sqrt(gain), 0.0
    return np.sqrt(gain * beta / (1.0 + beta)), np.sqrt(gain / (1.0 + beta))


def build_scsi(scenario: Scenario, rng: np.random.Generator) -> StatisticalCsi:
    """Draw the deterministic components once and absorb path loss / Rician split.

    For a link with path gain l and Rician factor b, the deterministic part is
    scaled by sqrt(l * b / (1 + b)) and the scattered per-entry standard
    deviation is sqrt(l / (1 + b)). The cascaded AP-IRS-user path applies the
    AP-IRS and IRS-user gains on their respective hops.
    """
    pl = scenario.path_loss
    n_h, n_v = scenario.irs_shape
    m, n, k = scenario.ap_antennas, scenario.num_elements, scenario.num_users

    d_ai = float(np.linalg.norm(scenario.ap_position - scenario.irs_position))
    gain_ai = path_loss(d_ai, pl.alpha_ai, pl.c0, pl.d0)
    det_ai, s_ai = _rician_split(gain_ai, scenario.rician.beta_ai)

    fbar = det_ai * _cscg(rng, (n, m))
    zbar_r = np.empty((k, n), dtype=complex)
    zbar_d = np.empty((k, m), dtype=complex)
    s_iu = np.empty(k)
    s_au = np.empty(k)
    for i, pos in enumerate(scenario.user_positions):
        d_iu = float(np.linalg.norm(pos - scenario.irs_position))
        d_au = float(np.linalg.norm(pos - scenario.ap_position))
        det_iu, s_iu[i] = _rician_split(path_loss(d_iu, pl.alpha_iu, pl.c0, pl.d0),
                                        scenario.rician.beta_iu)
        det_au, s_au[i] = _rician_split(path_loss(d_au, pl.alpha_au, pl.c0, pl.d0),
                                        scenario.rician.beta_au)
        zbar_r[i] = det_iu * _cscg(rng, (n,))
        zbar_d[i] = det_au * _cscg(rng, (m,))

    corr = scenario.correlation
    phi_d = exp_correlation(m, corr.r_d)
    phi_r = kron_correlation(exp_correlation(n_h, corr.r_r), exp_correlation(n_v, corr.r_r))
    phi_rk = np.stack([
        kron_correlation(exp_correlation(n_h, r), exp_correlation(n_v, r))
        for r in corr.r_rk
    ])
    return StatisticalCsi(
        zbar_r=zbar_r, zbar_d=zbar_d, fbar=fbar,
        phi_r=phi_r, phi_d=phi_d, phi_rk=phi_rk,
        s_au=s_au, s_ai=s_ai, s_iu=s_iu,
    )


def sample_batch(
    scsi: StatisticalCsi, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample `size` independent slot realizations at once.

    Returns (g, h_r, h_d) with shapes (size, N, M), (size, K, N), (size, K, M).
    """
    k, n, m = scsi.num_users, scsi.num_elements, scsi.num_antennas
    z_g = _cscg(rng, (size, n, m))
    g = scsi.fbar[None] + scsi.s_ai * (scsi.phi_r_sqrt @ z_g @ scsi.phi_d_sqrt)

    h_r = np.empty((size, k, n), dtype=complex)
    for i in range(k):
        z = _cscg(rng, (size, n))
        # phi^(1/2) is symmetric, so right-multiplication acts per sample
        h_r[:, i, :] = scsi.zbar_r[i][None] + scsi.s_iu[i] * (z @ scsi.phi_rk_sqrt[i])

    h_d = np.empty((size, k, m), dtype=complex)
    for i in range(k):
        z = _cscg(rng, (size, m))
        h_d[:, i, :] = scsi.zbar_d[i][None] + scsi.s_au[i] * (z @ scsi.phi_d_sqrt)
    return g, h_r, h_d


def sample_instantaneous(scsi: StatisticalCsi, rng: np.random.Generator) -> InstantaneousChannels:
    """Draw one correlated-Rician realization of all links."""
    return InstantaneousChannels(*sample_batch(scsi, 1, rng)).slot(0)


# ---------------------------------------------------------------------------
# reflection configuration and effective channels
# ---------------------------------------------------------------------------

CONTINUOUS = 0  # `levels` value encoding continuous phase resolution

GRID_ANGLE_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-9  # absolute bound on | |v_n| - 1 |


def grid_angles(levels: int) -> np.ndarray:
    """The discrete phase grid {0, 2*pi/L, ..., 2*pi*(L-1)/L}."""
    if levels < 1:
        raise ValueError("grid_angles needs levels >= 1")
    return 2.0 * np.pi * np.arange(levels) / levels


def nearest_level(theta: np.ndarray, levels: int) -> np.ndarray:
    """Index of the grid phase closest (wrap-around) to each angle.

    In grid steps x = (theta mod 2*pi) * L / (2*pi), the index is ceil(x - 1/2)
    mod L. x - 1/2 is exact, so an exact tie resolves to the lower index, and
    the wrap tie x = L - 1/2 resolves to 0. `grid_index` is the same rule on
    one Python float. A NaN or infinite angle raises FloatingPointError
    instead of landing on an arbitrary grid point.
    """
    x = np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi) * levels / (2.0 * np.pi)
    if np.isnan(x).any():
        raise FloatingPointError("cannot quantize an angle that is not finite")
    return np.where(x == levels - 0.5, 0, np.ceil(x - 0.5).astype(int) % levels)


def grid_index(theta: float, levels: int) -> int:
    """`nearest_level` of one Python float, bit for bit, without numpy's per-call cost."""
    x = theta % (2.0 * math.pi) * levels / (2.0 * math.pi)
    return 0 if x == levels - 0.5 else math.ceil(x - 0.5) % levels


@lru_cache(maxsize=None)
def grid_points(levels: int) -> np.ndarray:
    """The phase grid as unit-modulus points, cached and read-only."""
    points = np.exp(1j * grid_angles(levels))
    points.flags.writeable = False
    return points


def quantize_phases(theta: np.ndarray, levels: int) -> np.ndarray:
    """Unit-modulus vector on the phase grid nearest to the given angles."""
    if levels == CONTINUOUS:
        return np.exp(1j * np.asarray(theta, dtype=float))
    return grid_points(levels)[nearest_level(theta, levels)]


@dataclass
class PhaseConfig:
    """IRS reflection vector (conjugated reflection coefficients) plus resolution.

    `levels == 0` encodes continuous phases; `levels >= 1` means phases lie on
    the uniform grid with that many points. Every entry has unit modulus.
    """

    v: np.ndarray
    levels: int = CONTINUOUS

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex).reshape(-1)
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if not np.all(np.abs(np.abs(self.v) - 1.0) <= UNIT_MODULUS_TOL):
            raise ValueError("phase configurations require |v_n| = 1")
        if self.levels >= 1:
            angles = np.mod(np.angle(self.v), 2.0 * np.pi)
            grid = grid_angles(self.levels)
            dist = np.abs(angles[:, None] - grid[None, :])
            dist = np.minimum(dist, 2.0 * np.pi - dist)
            if dist.min(axis=1).max() > GRID_ANGLE_TOL:
                raise ValueError("phases are not on the declared grid")

    @classmethod
    def on_grid(cls, idx: np.ndarray, levels: int) -> "PhaseConfig":
        """The points `idx` of the `levels`-point grid; they lie on the grid by
        construction, so the checks of the constructor are skipped."""
        config = object.__new__(cls)
        config.v, config.levels = grid_points(levels)[idx], levels
        return config

    @property
    def size(self) -> int:
        return self.v.shape[0]


def phase_vector(v) -> np.ndarray:
    """Accept a PhaseConfig or a raw complex vector (or stack of vectors)."""
    if isinstance(v, PhaseConfig):
        return v.v
    return np.asarray(v, dtype=complex)


def effective_channels(v, ch: InstantaneousChannels) -> np.ndarray:
    """Composite AP->user channels h_k = G^H diag(h_{r,k}) v + h_{d,k}, shape (..., K, M).

    Equivalently h_k^H = v^H diag(h_{r,k}^H) G + h_{d,k}^H. Leading axes
    broadcast: one slot gives (K, M), a stack of S slots gives (S, K, M) with v
    of shape (N,) shared or (S, N) per slot, and the deterministic parts of
    the statistical CSI give the mean channel.
    """
    vv = phase_vector(v)
    return (ch.h_r * vv[..., None, :]) @ ch.g.conj() + ch.h_d
