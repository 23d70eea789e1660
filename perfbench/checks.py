"""Output checks that recompute properties instead of comparing stored numbers.

Every function returns a list of problems; an empty list means the output
passed. Nothing here imports ttsbeam, so the checks stay independent of the
code they check.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# ttsbeam's water-level search stops within this absolute distance (watts) of
# the power budget (`_solve_power_split(tol=1e-10)`), so a precoder may exceed
# the budget by that much and still meet the solver's own contract.
WMMSE_POWER_ABS_TOL = 1e-10
WMMSE_POWER_REL_TOL = 1e-9
WMMSE_OBJECTIVE_REL_TOL = 1e-9
UNIT_MODULUS_TOL = 1e-9
GRID_TOL_RAD = 1e-9

Q_INSENSITIVE = ("no-irs",)
TTS_SCHEMES = ("tts-pdd", "tts-ssca")


def expected_rows(cfg: dict) -> set[tuple[str, str, str]]:
    """(sweep_value, scheme, q_bits) of every CSV row a config should produce."""
    exp = cfg["experiment"]
    sweep = exp.get("sweep")
    points = [f"{float(x):.6g}" for x in sweep["grid"]] if sweep else [""]
    cells = set()
    for scheme in exp["schemes"]:
        qs = [0] if scheme in Q_INSENSITIVE else exp["q_bits"]
        cells.update((scheme, str(int(q))) for q in qs)
    return {(p, s, q) for p in points for s, q in cells}


def trial_points(cfg: dict) -> int:
    """Trials times sweep points: the trial count one config contributes."""
    exp = cfg["experiment"]
    sweep = exp.get("sweep")
    return int(exp["trials"]) * (len(sweep["grid"]) if sweep else 1)


def check_csv(text: str, cfg: dict) -> list[str]:
    """Schema, finiteness, trial count and the paper's per-trial orderings."""
    problems: list[str] = []
    k = len(cfg["scenario"]["user_positions"])
    header = ["sweep_value", "scheme", "q_bits", *(f"rate_user{i + 1}" for i in range(k)),
              "weighted_sum_rate", "std_error", "trials_used"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [f"header {rows[0] if rows else None} != {header}"]
    body = rows[1:]
    keys = [tuple(r[:3]) for r in body]
    want = expected_rows(cfg)
    if len(body) != len(want) or set(keys) != want:
        problems.append(f"rows {sorted(keys)} != expected {sorted(want)}")
    trials = int(cfg["experiment"]["trials"])
    wsr: dict[tuple[str, str, str], float] = {}
    for row in body:
        if len(row) != len(header):
            problems.append(f"row {row} has {len(row)} fields, want {len(header)}")
            continue
        rates = [float(x) for x in row[3:4 + k]]
        if not all(math.isfinite(r) and r > 0 for r in rates):
            problems.append(f"row {row[:3]} has a rate that is not finite and > 0: {rates}")
        if int(row[-1]) != trials:
            problems.append(f"row {row[:3]} used {row[-1]} trials, requested {trials}")
        wsr[tuple(row[:3])] = rates[-1]
    problems += _ordering_problems(wsr)
    return problems


def _ordering_problems(wsr: dict[tuple[str, str, str], float]) -> list[str]:
    """tts-* beats random-phase and no-irs; icsi-per-slot beats naive-icsi and no-irs."""
    problems = []
    for (point, scheme, q), rate in wsr.items():
        if scheme in TTS_SCHEMES:
            rivals = [(point, "random-phase", q), (point, "no-irs", "0")]
        elif scheme == "icsi-per-slot":
            rivals = [(point, "naive-icsi", q), (point, "no-irs", "0")]
        else:
            continue
        for rival in rivals:
            if rival in wsr and not rate > wsr[rival]:
                problems.append(f"{scheme} q={q} at {point or 'base'}: {rate} <= "
                                f"{rival[1]} {wsr[rival]}")
    return problems


def wmmse_power_excess(w: np.ndarray, power: float) -> float:
    """Relative amount by which sum_k ||w_k||^2 exceeds the budget (<= 0 when within)."""
    return float(np.sum(np.abs(w) ** 2)) / power - 1.0


def check_wmmse(h, alpha, power, noise, w, objective) -> list[str]:
    """Power budget, and the objective recomputed as sum_k alpha_k log2(1 + SINR_k)."""
    problems = []
    h = np.asarray(h, dtype=complex)
    w = np.asarray(w, dtype=complex)
    k = h.shape[0]
    total_power = float(np.sum(np.abs(w) ** 2))
    if not total_power <= power * (1.0 + WMMSE_POWER_REL_TOL) + WMMSE_POWER_ABS_TOL:
        problems.append(f"precoder power {total_power} exceeds budget {power}")
    # received amplitude of stream j at user k is h_k^H w_j
    gains = np.abs(h.conj() @ w.T) ** 2
    own = np.diagonal(gains)
    interference = gains.sum(axis=1) - own + np.broadcast_to(noise, (k,))
    ref = float(np.broadcast_to(alpha, (k,)) @ np.log2(1.0 + own / interference))
    if not abs(objective - ref) <= WMMSE_OBJECTIVE_REL_TOL * max(abs(ref), 1e-12):
        problems.append(f"objective {objective} != recomputed {ref}")
    return problems


def check_phases(v, levels: int) -> list[str]:
    """Unit modulus, and every phase on the grid of `levels` points (0 = continuous)."""
    v = np.asarray(v, dtype=complex)
    problems = []
    if not np.all(np.abs(np.abs(v) - 1.0) <= UNIT_MODULUS_TOL):
        problems.append(f"max | |v| - 1 | = {np.max(np.abs(np.abs(v) - 1.0))}")
    if levels >= 1:
        steps = np.angle(v) * levels / (2.0 * np.pi)
        off = np.abs(steps - np.round(steps)) * 2.0 * np.pi / levels
        if not np.all(off <= GRID_TOL_RAD):
            problems.append(f"phase {np.max(off)} rad off the {levels}-point grid")
    return problems


def check_identical(traced: bytes, untraced: bytes) -> list[str]:
    """Tracing must not change a single byte of the CSV."""
    if traced == untraced:
        return []
    return [f"traced CSV ({len(traced)} bytes) differs from untraced CSV ({len(untraced)} bytes)"]
