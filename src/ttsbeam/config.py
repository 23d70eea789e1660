"""YAML config loading: scenario geometry, experiment settings, unit handling.

Keys suffixed `_db` / `_dbm` are converted to linear / watts on load, so the
in-memory objects only ever carry linear quantities.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .channel import CorrelationSpec, PathLossModel, RicianFactors, Scenario
from .multi_user import SscaParams

DEFAULT_SEED = 20240

SWEEP_VARIABLES = ("ap_user_distance", "rician_beta", "r_r", "r_rk", "transmit_power")
SWEEP_ALIASES = {"d": "ap_user_distance", "r_ru": "r_rk", "p": "transmit_power",
                 "P": "transmit_power"}

SCHEME_TAGS = ("tts-pdd", "tts-ssca", "random-phase", "no-irs", "naive-icsi",
               "single-timescale", "icsi-per-slot")


def db_to_linear(x: float) -> float:
    return 10.0 ** (float(x) / 10.0)


def dbm_to_watts(x: float) -> float:
    return 10.0 ** ((float(x) - 30.0) / 10.0)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _integer(value, key: str) -> int:
    """`value` as an int; a bool, a fraction or a non-number is a ConfigError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass
class SweepSpec:
    variable: str
    grid: tuple[float, ...]

    def __post_init__(self):
        self.variable = SWEEP_ALIASES.get(self.variable, self.variable)
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable '{self.variable}'")
        try:
            self.grid = tuple(float(x) for x in self.grid)
        except (TypeError, ValueError):
            raise ConfigError(f"sweep grid must be a list of numbers, got {self.grid!r}") from None
        if not self.grid:
            raise ConfigError("sweep grid must be non-empty")


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs besides code."""

    scenario: Scenario
    schemes: tuple[str, ...]
    q_bits: tuple[int, ...]          # 0 encodes continuous phases
    slots: int
    trials: int
    weights: np.ndarray
    seed: int = DEFAULT_SEED
    sweep: SweepSpec | None = None
    ssca: SscaParams = field(default_factory=SscaParams)

    def __post_init__(self):
        self.schemes = tuple(str(s).lower() for s in self.schemes)
        for s in self.schemes:
            if s not in SCHEME_TAGS:
                raise ConfigError(f"unknown scheme tag '{s}'")
        self.q_bits = tuple(_integer(q, "q_bits") for q in self.q_bits)
        if any(q < 0 for q in self.q_bits):
            raise ConfigError("q_bits entries must be >= 0 (0 = continuous)")
        self.slots, self.trials = _integer(self.slots, "slots"), _integer(self.trials, "trials")
        if self.slots < 1 or self.trials < 1:
            raise ConfigError("slots and trials must be >= 1")
        self.weights = np.broadcast_to(
            np.asarray(self.weights, dtype=float), (self.scenario.num_users,)
        ).copy()


def levels_for_bits(q: int) -> int:
    """Phase levels for a bit count; 0 bits encodes continuous resolution."""
    return 0 if q == 0 else 2 ** int(q)


# ---------------------------------------------------------------------------
# shipped default scenarios
# ---------------------------------------------------------------------------

def default_single_user_scenario(
    distance: float = 50.0,
    n_elements: tuple[int, int] = (4, 10),
    antennas: int = 4,
) -> Scenario:
    """Hot-spot deployment: AP on the x-axis, panel above the user cluster.

    The user sits on the line (2 m, d, 0); the panel reference element is at
    (0, 50 m, 3 m).
    """
    return Scenario(
        ap_position=[2.0, 0.0, 0.0],
        ap_antennas=antennas,
        irs_position=[0.0, 50.0, 3.0],
        irs_shape=n_elements,
        user_positions=[[2.0, distance, 0.0]],
        transmit_power=dbm_to_watts(5.0),
        noise_powers=[dbm_to_watts(-80.0)],
        path_loss=PathLossModel(c0=db_to_linear(-30.0)),
        rician=RicianFactors(beta_au=db_to_linear(-3.0),
                             beta_ai=db_to_linear(3.0),
                             beta_iu=db_to_linear(3.0)),
        correlation=CorrelationSpec(r_d=0.2, r_r=0.5, r_rk=(0.5,)),
    )


def semicircle_positions(k: int, center=(0.0, 50.0, 0.0), radius: float = 3.0) -> np.ndarray:
    """K users equally spaced (endpoints included) on a ground-level semicircle."""
    angles = np.linspace(0.0, np.pi, k) if k > 1 else np.array([0.0])
    cx, cy, cz = center
    return np.stack([cx + radius * np.cos(angles),
                     cy + radius * np.sin(angles),
                     np.full(k, cz)], axis=1)


def default_multi_user_scenario(
    k: int = 4,
    n_elements: tuple[int, int] = (4, 10),
    antennas: int = 6,
) -> Scenario:
    """Four-user hot spot on a 3 m semicircle with graded IRS-user correlation."""
    r_rk = tuple((i / (k - 1) if k > 1 else 0.0) for i in range(k))
    return Scenario(
        ap_position=[2.0, 0.0, 0.0],
        ap_antennas=antennas,
        irs_position=[0.0, 50.0, 3.0],
        irs_shape=n_elements,
        user_positions=semicircle_positions(k),
        transmit_power=dbm_to_watts(5.0),
        noise_powers=[dbm_to_watts(-80.0)] * k,
        path_loss=PathLossModel(c0=db_to_linear(-30.0)),
        rician=RicianFactors(beta_au=db_to_linear(-5.0),
                             beta_ai=db_to_linear(5.0),
                             beta_iu=db_to_linear(5.0)),
        correlation=CorrelationSpec(r_d=0.0, r_r=0.5, r_rk=r_rk),
    )


# ---------------------------------------------------------------------------
# YAML parsing
# ---------------------------------------------------------------------------

def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {where} section")
    return mapping[key]


def _section(raw, where: str, keys) -> dict:
    """`raw` as a mapping that holds only keys the parser reads."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} section must be a mapping")
    unknown = [k for k in raw if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where} section")
    return raw


_TOP_KEYS = ("seed", "scenario", "experiment")
_SCENARIO_KEYS = ("ap_position", "ap_antennas", "irs_position", "irs_shape", "user_positions",
                  "transmit_power_dbm", "transmit_power_watts", "noise_power_dbm",
                  "noise_power_watts", "path_loss", "rician", "correlation")
_PATH_LOSS_KEYS = ("c0_db", "c0", "d0_m", "alpha_au", "alpha_ai", "alpha_iu")
_RICIAN_KEYS = tuple(f"{b}{u}" for b in ("beta_au", "beta_ai", "beta_iu") for u in ("", "_db"))
_CORRELATION_KEYS = ("r_d", "r_r", "r_rk")
# `threads` is accepted and ignored: trials run in one thread, and older
# configs still carry the setting
_EXPERIMENT_KEYS = ("schemes", "q_bits", "slots", "trials", "weights", "sweep", "ssca",
                    "threads")
_SWEEP_KEYS = ("variable", "grid")


def scenario_from_mapping(raw: dict) -> Scenario:
    raw = _section(raw, "scenario", _SCENARIO_KEYS)
    pl_raw = _section(_require(raw, "path_loss", "scenario"), "path_loss", _PATH_LOSS_KEYS)
    rician_raw = _section(_require(raw, "rician", "scenario"), "rician", _RICIAN_KEYS)
    corr_raw = _section(_require(raw, "correlation", "scenario"), "correlation",
                        _CORRELATION_KEYS)
    try:
        noise = raw.get("noise_power_dbm", None)
        if noise is not None:
            noise_powers = [dbm_to_watts(x) for x in np.atleast_1d(noise)]
        else:
            noise_powers = list(np.atleast_1d(_require(raw, "noise_power_watts", "scenario")))
        if "transmit_power_dbm" in raw:
            power = dbm_to_watts(raw["transmit_power_dbm"])
        else:
            power = float(_require(raw, "transmit_power_watts", "scenario"))
        pathloss = PathLossModel(
            c0=db_to_linear(pl_raw["c0_db"]) if "c0_db" in pl_raw else float(pl_raw["c0"]),
            d0=float(pl_raw.get("d0_m", 1.0)),
            alpha_au=float(pl_raw.get("alpha_au", 3.4)),
            alpha_ai=float(pl_raw.get("alpha_ai", 2.2)),
            alpha_iu=float(pl_raw.get("alpha_iu", 3.0)),
        )

        def beta(name):
            if f"{name}_db" in rician_raw:
                return db_to_linear(rician_raw[f"{name}_db"])
            return float(rician_raw[name])

        rician = RicianFactors(beta_au=beta("beta_au"), beta_ai=beta("beta_ai"),
                               beta_iu=beta("beta_iu"))
        correlation = CorrelationSpec(
            r_d=float(corr_raw.get("r_d", 0.0)),
            r_r=float(corr_raw.get("r_r", 0.0)),
            r_rk=tuple(float(x) for x in np.atleast_1d(corr_raw.get("r_rk", 0.0))),
        )
        user_positions = np.asarray(_require(raw, "user_positions", "scenario"), dtype=float)
        r_rk = correlation.r_rk
        if len(r_rk) == 1 and user_positions.shape[0] > 1:
            correlation = CorrelationSpec(r_d=correlation.r_d, r_r=correlation.r_r,
                                          r_rk=r_rk * user_positions.shape[0])
        return Scenario(
            ap_position=_require(raw, "ap_position", "scenario"),
            ap_antennas=_integer(_require(raw, "ap_antennas", "scenario"), "ap_antennas"),
            irs_position=_require(raw, "irs_position", "scenario"),
            irs_shape=tuple(_integer(x, "irs_shape")
                            for x in _require(raw, "irs_shape", "scenario")),
            user_positions=user_positions,
            transmit_power=power,
            noise_powers=noise_powers,
            path_loss=pathloss,
            rician=rician,
            correlation=correlation,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid scenario section: {exc}") from exc


def spec_from_mapping(raw: dict) -> ExperimentSpec:
    raw = _section(raw, "top-level", _TOP_KEYS)
    scenario = scenario_from_mapping(_require(raw, "scenario", "top-level"))
    exp = _section(raw.get("experiment", {}), "experiment", _EXPERIMENT_KEYS)
    sweep = None
    if exp.get("sweep"):
        sweep_raw = _section(exp["sweep"], "sweep", _SWEEP_KEYS)
        sweep = SweepSpec(variable=str(_require(sweep_raw, "variable", "sweep")),
                          grid=_require(sweep_raw, "grid", "sweep"))
    defaults = SscaParams()
    ssca_raw = _section(exp.get("ssca", {}), "ssca", [f.name for f in fields(SscaParams)])
    try:
        # each value takes the type of its dataclass default (int or float)
        ssca = SscaParams(**{k: _integer(x, f"ssca.{k}") if isinstance(getattr(defaults, k), int)
                             else float(x) for k, x in ssca_raw.items()})
        return ExperimentSpec(
            scenario=scenario,
            schemes=tuple(exp.get("schemes", ("tts-pdd",))),
            q_bits=tuple(exp.get("q_bits", (1,))),
            slots=exp.get("slots", 200),
            trials=exp.get("trials", 200),
            weights=np.asarray(exp.get("weights", [1.0] * scenario.num_users), dtype=float),
            seed=_integer(raw.get("seed", DEFAULT_SEED), "seed"),
            sweep=sweep,
            ssca=ssca,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid experiment section: {exc}") from exc


def load_config(path: str) -> ExperimentSpec:
    """Parse a YAML experiment file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return spec_from_mapping(raw)
