"""Command-line front end.

Subcommands: `run` (experiment from a config file), `sweep` (override the sweep
variable/grid), `validate` (fast self-checks), `convergence` (per-iteration
solver traces). Exit codes: 0 success, 1 configuration error, 2 experiment or
validation failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .channel import (
    InstantaneousChannels,
    _cscg as cscg,
    build_scsi,
    effective_channels,
    exp_correlation,
    psd_sqrt,
    sample_batch,
)
from .config import (
    ConfigError,
    ExperimentSpec,
    SweepSpec,
    default_single_user_scenario,
    levels_for_bits,
    load_config,
)
from .harness import ExperimentError, emit_csv, run_experiment
from .multi_user import (
    WATER_LEVEL_TOL,
    instantaneous_rates,
    rate_jacobian,
    ssca_run,
    wmmse_solve,
    wmmse_solve_batch,
)
from .rng import substream
from .single_user import (
    PddParams,
    QuadraticForm,
    brute_force_solve,
    build_quadratic_form,
    mrt_rate,
    pdd_solve,
)

log = logging.getLogger("ttsbeam")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ttsbeam", description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (default: $TTSBEAM_SEED if set)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="output CSV path")

    p_sweep = sub.add_parser("sweep", help="run with an overridden sweep grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--var", required=True, help="sweep variable name")
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")

    p_val = sub.add_parser("validate", help="run the built-in invariant/oracle checks")
    p_val.add_argument("--config", default=None, help="optional config to validate")

    p_conv = sub.add_parser("convergence", help="emit a per-iteration solver trace")
    p_conv.add_argument("--scheme", required=True, choices=["tts-pdd", "tts-ssca"])
    p_conv.add_argument("--config", default=None)
    p_conv.add_argument("--out", required=True)
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("TTSBEAM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"TTSBEAM_SEED must be an integer, got '{raw}'") from None


def _spec(args) -> ExperimentSpec:
    """The --config experiment, or the default single-user scenario at seed 0;
    --seed overrides either seed."""
    if args.config is not None:
        spec = load_config(args.config)
    else:
        spec = ExperimentSpec(scenario=default_single_user_scenario(), schemes=(), q_bits=(),
                              slots=1, trials=1, weights=1.0, seed=0)
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def _cmd_run(args) -> int:
    """`run`, and `sweep` with the config's sweep replaced by --var/--grid."""
    spec = _spec(args)
    if args.command == "sweep":
        spec.sweep = SweepSpec(variable=args.var, grid=args.grid.split(","))
    records = run_experiment(spec)
    emit_csv(records, args.out)
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


def _cmd_convergence(args) -> int:
    spec = _spec(args)
    scenario, seed = spec.scenario, spec.seed
    scsi = build_scsi(scenario, substream(seed, "scsi", 0))
    if args.scheme == "tts-pdd":
        if scenario.num_users != 1:
            raise ConfigError("tts-pdd trace requires a single-user scenario")
        result = pdd_solve(build_quadratic_form(scsi), PddParams(levels=levels_for_bits(1)),
                           record_trace=True)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("outer_iter,inner_iter,al_value,objective,violation_inf_norm\n")
            for row in result.trace:
                fh.write(f"{row[0]},{row[1]},{row[2]:.6g},{row[3]:.6g},{row[4]:.6g}\n")
    else:
        result = ssca_run(scsi, scenario.transmit_power, scenario.noise_powers,
                          spec.weights, spec.ssca, levels=levels_for_bits(1),
                          rng=substream(seed, "ssca", 0))
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,rho_t,gamma_t,sum_r_hat,v_change_inf_norm\n")
            for row in result.trace:
                fh.write(f"{row[0]},{row[1]:.6g},{row[2]:.6g},{row[3]:.6g},{row[4]:.6g}\n")
    log.info("wrote trace to %s", args.out)
    return 0


# ---------------------------------------------------------------------------
# validate: quick self-checks of the main invariants
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
    return ok


def _validate(args) -> int:
    spec = _spec(args)
    scenario, seed = spec.scenario, spec.seed
    ok = True

    corr = exp_correlation(16, 0.6)
    s = psd_sqrt(corr)
    ok &= _check("correlation PSD square root",
                 np.linalg.norm(s @ s - corr) <= 1e-8 * np.linalg.norm(corr))

    rng = substream(seed, "validate", "scsi")
    multi = scenario.num_users > 1
    su = default_single_user_scenario() if multi else scenario
    su_note = " (default single-user scenario)" if multi else ""
    scsi = build_scsi(su, rng)
    qf = build_quadratic_form(scsi)
    v = np.exp(1j * substream(seed, "validate", "v").uniform(0, 2 * np.pi, su.num_elements))
    h_eff = effective_channels(v, InstantaneousChannels(
        *sample_batch(scsi, 20000, substream(seed, "validate", "mc"))))
    mc = float(np.mean(np.sum(np.abs(h_eff) ** 2, axis=-1)))
    analytic = qf.expected_gain(v)
    ok &= _check("average channel power matches quadratic form" + su_note,
                 abs(mc - analytic) <= 0.03 * analytic,
                 f"mc={mc:.4e} analytic={analytic:.4e}")

    hit = 0
    for i in range(5):
        rng_i = substream(seed, "validate", "pdd", i)
        x = (rng_i.standard_normal((6, 6)) + 1j * rng_i.standard_normal((6, 6))) / np.sqrt(2)
        phi = x @ x.conj().T / 6
        b = (rng_i.standard_normal(6) + 1j * rng_i.standard_normal(6)) / np.sqrt(2)
        qf_i = QuadraticForm(phi=phi, b=b, const_term=0.0)
        res = pdd_solve(qf_i, PddParams(levels=2))
        ref = brute_force_solve(qf_i, levels=2)
        hit += res.objective >= 0.95 * ref.objective
    ok &= _check("penalty solver near brute-force optimum", hit >= 4, f"{hit}/5")

    if multi:
        # the multi-user checks run on slots drawn from the config's own
        # statistical CSI at random phases, with its power, noise and weights
        scsi_mu = build_scsi(scenario, substream(seed, "validate", "mu-scsi"))
        v = np.exp(1j * substream(seed, "validate", "mu-v").uniform(
            0, 2 * np.pi, scenario.num_elements))
        slots = InstantaneousChannels(
            *sample_batch(scsi_mu, 4, substream(seed, "validate", "mu-slots")))
        hs = effective_channels(v, slots)
        power, noise, weights = scenario.transmit_power, scenario.noise_powers, spec.weights
        where = " (config channels)"
    else:
        # toy problems: (3, 4) channels over two decades of scale, so the items
        # stop at different iterations
        hs = cscg(substream(seed, "validate", "wmmse-stack"), (4, 3, 4))
        hs *= np.logspace(-1.0, 1.0, 4)[:, None, None]
        power, noise, weights = 1.0, np.full(3, 0.1), np.ones(3)
        where = ""

    stacked = wmmse_solve_batch(hs, weights, power, noise)
    mono = all(b >= a - 1e-9 for st in stacked for a, b in zip(st.trace, st.trace[1:]))
    ok &= _check("precoder iteration monotone" + where, mono)
    h1 = cscg(substream(seed, "validate", "wmmse"), (3, 4))[:1]
    state1 = wmmse_solve(h1, np.ones(1), 1.0, np.array([0.1]))
    ok &= _check("single-user precoder matches matched filter",
                 abs(state1.objective - mrt_rate(h1[0], 1.0, 0.1)) <= 1e-6)
    alone = [wmmse_solve(hi, weights, power, noise) for hi in hs]
    same = all(np.array_equal(a.w, b.w) and a.iterations == b.iterations
               for a, b in zip(stacked, alone))
    within = all(np.sum(np.abs(a.w) ** 2) <= power * (1.0 + WATER_LEVEL_TOL + 1e-14)
                 for a in stacked)
    ok &= _check("stacked precoders match one-by-one" + where, same and within,
                 f"iterations {[a.iterations for a in stacked]}")

    if multi:
        # Jacobian entries reach 1e-7 at the config's scale: there the rounding
        # of a 1e-6 step (about 5e-10) alone exceeds the 1e-5 tolerance, and
        # that of a 1e-4 step (about 5e-12) does not
        ch, w, eps = slots.slot(0), stacked[0].w, 1e-4
    else:
        rng_j = substream(seed, "validate", "jac")
        n, m, k = 5, 3, 2
        ch = InstantaneousChannels(g=cscg(rng_j, (n, m)), h_r=cscg(rng_j, (k, n)),
                                   h_d=cscg(rng_j, (k, m)))
        w = cscg(rng_j, (k, m))
        v = np.exp(1j * rng_j.uniform(0, 2 * np.pi, n))
        noise, eps = np.full(k, 0.3), 1e-6
    _, c = instantaneous_rates(v, w, ch, noise)
    jac = rate_jacobian(ch, w, c, noise)
    worst = 0.0
    for idx in range(v.size):
        for re_im, ref in ((1.0, 2 * jac[idx].real), (1j, 2 * jac[idx].imag)):
            dv = np.zeros(v.size, dtype=complex)
            dv[idx] = re_im * eps
            rp, _ = instantaneous_rates(v + dv, w, ch, noise)
            rm, _ = instantaneous_rates(v - dv, w, ch, noise)
            fd = (rp - rm) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-6))))
    ok &= _check("rate gradient matches finite differences" + where, worst < 1e-5,
                 f"max rel err {worst:.2e}")

    scsi_a = build_scsi(scenario, substream(seed, "validate", "det"))
    scsi_b = build_scsi(scenario, substream(seed, "validate", "det"))
    same = (np.array_equal(scsi_a.zbar_r, scsi_b.zbar_r)
            and np.array_equal(scsi_a.fbar, scsi_b.fbar))
    ok &= _check("statistical CSI reproducible from seed", same)
    return 0 if ok else 2


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse may still exit directly (e.g. --help); map its code
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1

    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        if args.seed is None:
            args.seed = _env_seed()
        if args.command in ("run", "sweep"):
            return _cmd_run(args)
        if args.command == "validate":
            return _validate(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ExperimentError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
