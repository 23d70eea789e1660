"""Spans around ttsbeam's public functions, recorded from outside the package.

`Tracer.patch()` replaces each traced function in every `ttsbeam` module
namespace that binds it (harness, baselines and cli import them by name, so
each binding needs its own wrapper) and restores the originals on exit. Spans
and call records stay in memory; `write_spans` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import checks

# module -> functions whose calls become spans
TRACED = {
    "cli": ("cli_main",),
    "config": ("load_config",),
    "harness": ("simulate_point", "emit_csv"),
    "channel": ("build_scsi", "sample_batch"),
    "rng": ("substream",),
    "single_user": ("build_quadratic_form", "pdd_solve", "pdd_solve_batch", "bcd_solve"),
    "multi_user": ("wmmse_solve", "ssca_run", "instantaneous_rates", "rate_jacobian"),
    "baselines": ("random_phase", "no_irs_rate", "icsi_per_slot"),
}


def _ssca_after_stable(b, r):
    return r.iterations - r.stabilized_at if r.stabilized_at is not None else 0


# span name -> {quantity: f(bound arguments, result)}, read from the returned results
QUANTITIES = {
    "multi_user.wmmse_solve": {
        "iters": lambda b, r: r.iterations,
        # calls that meet the solver's absolute tolerance but not P(1 + 1e-9)
        "over_budget": lambda b, r: int(checks.wmmse_power_excess(r.w, b["power"])
                                        > checks.WMMSE_POWER_REL_TOL),
    },
    "multi_user.ssca_run": {
        "iters": lambda b, r: r.iterations,
        "iters_after_stable": _ssca_after_stable,
        "converged": lambda b, r: int(r.converged),
    },
    "single_user.pdd_solve": {"outer_iters": lambda b, r: r.outer_iterations},
    "single_user.pdd_solve_batch": {"problems": lambda b, r: len(b["phis"])},
    "single_user.bcd_solve": {"sweeps": lambda b, r: len(r.sweep_objectives) - 1},
    "baselines.icsi_per_slot": {"rounds": lambda b, r: len(r.round_objectives)},
}


def _config_on_grid(cfg, levels: int) -> list[str]:
    found = [] if cfg.levels == levels else [f"levels {cfg.levels} != requested {levels}"]
    return found + checks.check_phases(cfg.v, levels)


# span name -> f(bound arguments, result) -> problems
KERNEL_CHECKS = {
    "multi_user.wmmse_solve": lambda b, r: checks.check_wmmse(
        b["h"], b["weights_alpha"], b["power"], b["noise"], r.w, r.objective),
    "single_user.pdd_solve": lambda b, r: _config_on_grid(r.config, b["params"].levels),
    "single_user.pdd_solve_batch": lambda b, r: [
        p for u in r[0] for p in checks.check_phases(u, b["params"].levels)],
    "multi_user.ssca_run": lambda b, r: _config_on_grid(r.config, b["levels"]),
    "baselines.random_phase": lambda b, r: _config_on_grid(r, b["levels"]),
}


class Tracer:
    """Span stack plus the calls whose results are counted or checked."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index, experiment]
        self.calls: list[tuple] = []       # (name, signature, args, kwargs, result)
        self._stack: list[int] = []
        self.experiment = -1

    def wrap(self, name: str, fn):
        keep = name in QUANTITIES or name in KERNEL_CHECKS
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.experiment])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if keep:
                self.calls.append((name, signature, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def patch(self):
        """Wrap every binding of every traced function; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ttsbeam" or n.startswith("ttsbeam.")]
        saved = []
        try:
            for mod_name, names in TRACED.items():
                home = importlib.import_module(f"ttsbeam.{mod_name}")
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self.wrap(f"{mod_name}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def take_calls(self):
        """Bound arguments and results of the calls since the last take."""
        calls, self.calls = self.calls, []
        for name, signature, args, kwargs, result in calls:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            yield name, bound.arguments, result

    def self_times(self) -> dict[int, dict[str, list]]:
        """experiment -> span name -> [calls, summed self time]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list]] = {}
        for i, (name, start, end, _, exp) in enumerate(self.spans):
            acc = out.setdefault(exp, {}).setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, exp) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "experiment": exp}) + "\n")
