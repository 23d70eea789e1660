"""Monte-Carlo experiment runner: sweeps, trials, slot averaging, CSV output.

One trial = one statistical-CSI draw followed by `slots` channel realizations.
All randomness comes from named substreams of the master seed (per trial, per
slot, per scheme where needed), so results do not depend on scheduling and a
fixed (config, seed) pair reproduces the output byte for byte.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import baselines
from .channel import InstantaneousChannels, Scenario, build_scsi, effective_channels, sample_batch
from .config import ConfigError, ExperimentSpec, db_to_linear, dbm_to_watts, levels_for_bits
from .multi_user import precoders, slot_rates, ssca_run
from .multi_user import wmmse_solve  # noqa: F401  (perfbench's tracer test reads it here)
from .rng import substream
from .single_user import (
    PddParams,
    QuadraticForm,
    build_quadratic_form,
    pdd_solve,
    pdd_solve_batch,
)

log = logging.getLogger("ttsbeam")

MAX_FAILURE_FRACTION = 0.05

Q_INSENSITIVE_SCHEMES = ("no-irs",)


class ExperimentError(RuntimeError):
    """Raised when too many trials fail or a scheme is misconfigured."""


@dataclass
class ResultRecord:
    """Aggregated outcome of one (sweep value, scheme, resolution) cell."""

    sweep_value: float | None
    scheme: str
    q_bits: int
    user_rates: np.ndarray        # (K,) mean per-user rate, bits/s/Hz
    weighted_sum_rate: float
    std_error: float              # std error of the per-trial weighted rates
    trials_used: int
    failures: int


@dataclass
class PointStats:
    """Per-trial outcomes at a single sweep point (used for paired tests)."""

    weighted: np.ndarray          # (trials,)
    per_user: np.ndarray          # (trials, K)

    @property
    def mean(self) -> float:
        return float(self.weighted.mean())

    @property
    def std_error(self) -> float:
        if self.weighted.size < 2:
            return 0.0
        return float(self.weighted.std(ddof=1) / np.sqrt(self.weighted.size))


def apply_sweep(scenario: Scenario, variable: str, value: float) -> Scenario:
    """Scenario with one swept quantity replaced.

    ap_user_distance moves every user to y = value (meters); rician_beta sets
    the two cascaded-link factors from a dB value; transmit_power takes dBm.
    A value the scenario rejects raises ConfigError.
    """
    try:
        if variable == "ap_user_distance":
            positions = scenario.user_positions.copy()
            positions[:, 1] = value
            return replace(scenario, user_positions=positions)
        if variable == "rician_beta":
            lin = db_to_linear(value)
            return replace(scenario, rician=replace(scenario.rician, beta_ai=lin, beta_iu=lin))
        if variable == "r_r":
            return replace(scenario, correlation=replace(scenario.correlation, r_r=float(value)))
        if variable == "r_rk":
            corr = replace(scenario.correlation, r_rk=(float(value),) * scenario.num_users)
            return replace(scenario, correlation=corr)
        if variable == "transmit_power":
            return replace(scenario, transmit_power=dbm_to_watts(value))
    except ValueError as exc:
        raise ConfigError(f"sweep {variable} = {value:g}: {exc}") from exc
    raise ExperimentError(f"unknown sweep variable '{variable}'")


def _scheme_cells(spec: ExperimentSpec) -> list[tuple[str, int]]:
    cells = []
    for scheme in spec.schemes:
        if scheme in Q_INSENSITIVE_SCHEMES:
            cells.append((scheme, 0))
        else:
            cells.extend((scheme, q) for q in spec.q_bits)
    return sorted(set(cells))


class _Trial:
    """One trial's draws: the statistical CSI and every slot, stacked over slots.

    Substreams: the statistical CSI comes from ("scsi", trial) and slot s from
    ("samples", trial, s); schemes draw theirs through `rng`.
    """

    def __init__(self, scenario: Scenario, spec: ExperimentSpec, index: int):
        self.spec, self.index = spec, index
        self.power, self.noise = scenario.transmit_power, scenario.noise_powers
        self.scsi = build_scsi(scenario, substream(spec.seed, "scsi", index))
        draws = [sample_batch(self.scsi, 1, substream(spec.seed, "samples", index, s))
                 for s in range(spec.slots)]
        # g (S, N, M), h_r (S, K, N), h_d (S, K, M)
        self.ch = InstantaneousChannels(*(np.concatenate(parts) for parts in zip(*draws)))

    def rng(self, name: str, *path) -> np.random.Generator:
        return substream(self.spec.seed, name, self.index, *path)

    @cached_property
    def qf(self) -> QuadraticForm:
        return build_quadratic_form(self.scsi)


def _adaptive_precoders(t: _Trial, v: np.ndarray) -> np.ndarray:
    """(S, K) rates with the phases v held, (N,) shared or (S, N) per slot, and
    the precoders re-designed every slot."""
    h = effective_channels(v, t.ch)
    return slot_rates(h, precoders(h, t.spec.weights, t.power, t.noise), t.noise)[0]


def _fixed_precoders(t: _Trial, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(S, K) rates with the phases and the precoders both held; v is (N,) or
    (S, N), w is (K, M) or (S, K, M)."""
    return slot_rates(effective_channels(v, t.ch), w, t.noise)[0]


# Scheme entries: design on the slow timescale, then one of the two evaluators.
# Kernels are called by their module-level names so that wrapping a module
# attribute (as a profiler or tracer does) sees every call.

def _tts_pdd(t: _Trial, levels: int, q: int) -> np.ndarray:
    if t.scsi.num_users != 1:
        raise ExperimentError("tts-pdd is the single-user long-term scheme")
    return _adaptive_precoders(t, pdd_solve(t.qf, PddParams(levels=levels)).config.v)


def _tts_ssca(t: _Trial, levels: int, q: int) -> np.ndarray:
    res = ssca_run(t.scsi, t.power, t.noise, t.spec.weights, t.spec.ssca, levels=levels,
                   rng=t.rng("ssca", q))
    return _adaptive_precoders(t, res.config.v)


def _random_phase(t: _Trial, levels: int, q: int) -> np.ndarray:
    n = t.scsi.num_elements
    v = np.stack([baselines.random_phase(levels, n, t.rng("phase", s, q)).v
                  for s in range(t.spec.slots)])
    return _adaptive_precoders(t, v)


def _no_irs(t: _Trial, levels: int, q: int) -> np.ndarray:
    return _adaptive_precoders(t, np.zeros(t.scsi.num_elements, dtype=complex))


def _naive_icsi(t: _Trial, levels: int, q: int) -> np.ndarray:
    cfg = baselines.naive_icsi(t.ch.slot(0), levels, t.spec.weights, t.power, t.noise)
    return _adaptive_precoders(t, cfg.v)


def _single_timescale(t: _Trial, levels: int, q: int) -> np.ndarray:
    cfg, w = baselines.single_timescale(t.scsi, levels, t.power, t.noise, t.spec.weights,
                                        ssca_params=t.spec.ssca, rng=t.rng("ssca", q, "st"))
    return _fixed_precoders(t, cfg.v, w)


def _icsi_per_slot(t: _Trial, levels: int, q: int) -> np.ndarray:
    if t.scsi.num_users == 1:
        # every slot's ||h_eff(v)||^2 as a rank-M factored form, solved in one batch
        factors, bs = baselines.slot_quadratic_forms(t.ch.g, t.ch.h_r[:, 0], t.ch.h_d[:, 0])
        u, _, _ = pdd_solve_batch(factors, bs, replace(baselines.ICSI_PDD, levels=levels))
        return _adaptive_precoders(t, u)
    design = baselines.icsi_per_slot(t.ch, levels, t.spec.weights, t.power, t.noise)
    return _fixed_precoders(t, design.v, design.w)


SCHEMES = {
    "tts-pdd": _tts_pdd,
    "tts-ssca": _tts_ssca,
    "random-phase": _random_phase,
    "no-irs": _no_irs,
    "naive-icsi": _naive_icsi,
    "single-timescale": _single_timescale,
    "icsi-per-slot": _icsi_per_slot,
}


def _run_trial(scenario: Scenario, spec: ExperimentSpec, trial: int) -> dict[tuple[str, int], np.ndarray]:
    """Mean per-user rates of every (scheme, q) cell over one trial's slots; a
    rate that is not finite raises FloatingPointError naming its cell."""
    t = _Trial(scenario, spec, trial)
    out = {}
    for scheme, q in _scheme_cells(spec):
        rates = SCHEMES[scheme](t, levels_for_bits(q), q).mean(axis=0)
        if not np.isfinite(rates).all():
            raise FloatingPointError(f"{scheme} at q={q}: rates {rates} are not finite")
        out[(scheme, q)] = rates
    return out


def simulate_point(
    scenario: Scenario, spec: ExperimentSpec
) -> tuple[dict[tuple[str, int], PointStats], int]:
    """Run all trials at one sweep point; returns per-trial stats and failure count."""
    kept = []
    for trial in range(spec.trials):
        try:
            kept.append(_run_trial(scenario, spec, trial))
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            # numerical failures are tolerated per trial; any other error is a bug
            log.warning("trial %d failed: %s: %s", trial, type(exc).__name__, exc)

    failures = spec.trials - len(kept)
    if failures > MAX_FAILURE_FRACTION * spec.trials:
        raise ExperimentError(
            f"{failures}/{spec.trials} trials failed (more than {MAX_FAILURE_FRACTION:.0%})"
        )
    if failures:
        log.warning("%d/%d trials failed and were excluded", failures, spec.trials)

    stats = {}
    for cell in _scheme_cells(spec):
        per_user = np.stack([r[cell] for r in kept])
        weighted = per_user @ spec.weights
        stats[cell] = PointStats(weighted=weighted, per_user=per_user)
    return stats, failures


def run_experiment(spec: ExperimentSpec) -> list[ResultRecord]:
    """Full experiment: every sweep value x scheme x resolution cell."""
    records: list[ResultRecord] = []
    if spec.sweep is None:
        points = [(None, spec.scenario)]
    else:
        # every swept scenario is built, and so checked, before the first point runs
        points = [(value, apply_sweep(spec.scenario, spec.sweep.variable, value))
                  for value in spec.sweep.grid]
    for value, scenario in points:
        t0 = time.perf_counter()
        stats, failures = simulate_point(scenario, spec)
        elapsed = time.perf_counter() - t0
        for (scheme, q) in sorted(stats):
            ps = stats[(scheme, q)]
            records.append(ResultRecord(
                sweep_value=value,
                scheme=scheme,
                q_bits=q,
                user_rates=ps.per_user.mean(axis=0),
                weighted_sum_rate=ps.mean,
                std_error=ps.std_error,
                trials_used=ps.weighted.size,
                failures=failures,
            ))
        log.info("sweep point %s done in %.1fs (%d failures)", value, elapsed, failures)
    records.sort(key=lambda r: (r.sweep_value if r.sweep_value is not None else 0.0,
                                r.scheme, r.q_bits))
    return records


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_csv(records: list[ResultRecord], path: str) -> None:
    """Write records deterministically; six significant digits per float.

    Wall time is intentionally not serialized so that identical (config, seed)
    runs produce identical files.
    """
    k = records[0].user_rates.shape[0] if records else 0
    user_cols = [f"rate_user{i + 1}" for i in range(k)]
    header = ["sweep_value", "scheme", "q_bits", *user_cols, "weighted_sum_rate",
              "std_error", "trials_used"]
    lines = [",".join(header)]
    for rec in records:
        sweep = "" if rec.sweep_value is None else _fmt(rec.sweep_value)
        fields = [sweep, rec.scheme, str(rec.q_bits),
                  *(_fmt(x) for x in rec.user_rates),
                  _fmt(rec.weighted_sum_rate), _fmt(rec.std_error),
                  str(rec.trials_used)]
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
